package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"sommelier/internal/engine"
	"sommelier/internal/seismic"
	"sommelier/internal/server"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// digest identifies an answer: its row count and an order-insensitive
// checksum of its values (the wrapping sum of one FNV-1a hash per row).
type digest struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// addRow folds one row in. Cells are canonical across the reference and
// the three wire formats: every number is hashed as its float64 bits
// (JSON has only floats), a time as its wire string, and NaN/Inf as
// null, which is how the JSON formats render them.
func (d *digest) addRow(cells []any) {
	h := uint64(fnvOffset)
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	for _, c := range cells {
		if f, ok := c.(int64); ok {
			c = float64(f)
		}
		if f, ok := c.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			c = nil
		}
		switch v := c.(type) {
		case nil:
			mix('n')
		case float64:
			mix('f')
			for bits, i := math.Float64bits(v), 0; i < 8; i++ {
				mix(byte(bits >> (8 * i)))
			}
		case string:
			mix('s')
			for i := 0; i < len(v); i++ {
				mix(v[i])
			}
		case bool:
			mix('b')
			if v {
				mix(1)
			}
		default:
			panic(fmt.Sprintf("digest: unexpected cell type %T", c))
		}
		mix(0x1f)
	}
	d.rows++
	d.sum += h
}

// openDB opens the archive in-process the way sommelierd does,
// including the windowdataview_md view it registers at start-up.
func openDB(dir string, cfg engine.Config) (*engine.DB, error) {
	db, err := engine.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	err = db.Catalog().AddView(&table.View{
		Name:   "windowdataview_md",
		Tables: []string{seismic.TableF, seismic.TableH},
		Joins: []table.JoinPred{
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
		},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// referenceDigest runs sql in-process and digests the result straight
// from the engine's columns, bypassing every wire encoder.
func referenceDigest(ctx context.Context, db *engine.DB, sql string) (digest, error) {
	res, err := db.QueryArgsContext(ctx, sql)
	if err != nil {
		return digest{}, err
	}
	defer res.Release()
	var d digest
	flat := res.Rel.Flatten()
	row := make([]any, flat.Width())
	for ri := 0; ri < flat.Len(); ri++ {
		for ci, c := range flat.Cols {
			if tc, ok := c.(*storage.TimeColumn); ok {
				row[ci] = server.WireTime(tc.Value(ri))
			} else {
				row[ci] = storage.ValueAt(c, ri)
			}
		}
		d.addRow(row)
	}
	return d, nil
}

// fillReference computes the expected answer of every query, once per
// distinct statement (formats share it), on `workers` goroutines.
func fillReference(ctx context.Context, dir string, queries []*query, workers int) error {
	db, err := openDB(dir, engine.Config{CacheBytes: 512 << 20})
	if err != nil {
		return fmt.Errorf("open reference: %w", err)
	}
	bySQL := map[string][]*query{}
	var order []string
	for _, q := range queries {
		if _, ok := bySQL[q.sql]; !ok {
			order = append(order, q.sql)
		}
		bySQL[q.sql] = append(bySQL[q.sql], q)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sql := range next {
				d, err := referenceDigest(ctx, db, sql)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %q: %w", sql, err)
				}
				mu.Unlock()
				for _, q := range bySQL[sql] {
					q.want = d
				}
			}
		}()
	}
	for _, sql := range order {
		next <- sql
	}
	close(next)
	wg.Wait()
	return firstErr
}

// answer is a decoded response: what it said, and the stats block the
// server attached to it.
type answer struct {
	got   digest
	stats server.QueryStats
}

// decodeAnswer parses a complete 200 response body of the given format,
// decoding every row.
func decodeAnswer(format wireFormat, body []byte) (answer, error) {
	var a answer
	switch format {
	case fmtJSON:
		var r server.QueryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, err
		}
		// len(Rows), not row_count: the server reads row_count after
		// releasing the result, and it comes back 0 for multi-batch
		// results.
		for _, row := range r.Rows {
			a.got.addRow(row)
		}
		a.stats = r.Stats
	case fmtNDJSON:
		sawFooter := false
		for len(body) > 0 {
			var line []byte
			line, body, _ = bytes.Cut(body, []byte{'\n'})
			if len(line) == 0 {
				continue
			}
			var l struct {
				Rows     [][]any            `json:"rows"`
				RowCount *int               `json:"row_count"`
				Stats    *server.QueryStats `json:"stats"`
				Error    string             `json:"error"`
			}
			if err := json.Unmarshal(line, &l); err != nil {
				return a, err
			}
			if l.Error != "" {
				return a, fmt.Errorf("in-band error: %s", l.Error)
			}
			for _, row := range l.Rows {
				a.got.addRow(row)
			}
			if l.RowCount != nil && l.Stats != nil {
				if *l.RowCount != a.got.rows {
					return a, fmt.Errorf("footer row_count %d, stream carried %d", *l.RowCount, a.got.rows)
				}
				a.stats, sawFooter = *l.Stats, true
			}
		}
		if !sawFooter {
			return a, fmt.Errorf("ndjson stream has no footer")
		}
	case fmtSOMW:
		r, err := server.DecodeColumnar(bytes.NewReader(body))
		if err != nil {
			return a, err
		}
		if r.Err != "" {
			return a, fmt.Errorf("in-band error: %s", r.Err)
		}
		if r.RowCount != len(r.Rows) {
			return a, fmt.Errorf("footer row_count %d, stream carried %d", r.RowCount, len(r.Rows))
		}
		for _, row := range r.Rows {
			for ci, k := range r.Kinds {
				if k == storage.KindTime {
					row[ci] = server.WireTime(row[ci].(int64))
				}
			}
			a.got.addRow(row)
		}
		a.stats = r.Stats
	}
	return a, nil
}
