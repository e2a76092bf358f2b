// Package dmd implements incremental metadata derivation: derived-
// metadata (DMd) tables as partially materialized views, maintained by
// the paper's Algorithm 1. When a query refers to a DMd table, the
// manager enumerates the primary-key space the query touches (PSq),
// subtracts the already materialized set (PSm), and computes the
// uncovered remainder (PSu) with one grouped query per station/channel
// through the engine itself — two-stage execution, lazy loading and the
// executor's aggregate fold — before the user's query proceeds. The
// hourly view H keeps its rows in key order (station, channel, window
// start), so its contents do not depend on the order queries derived
// them in.
//
// Derivation runs in the query's own degraded mode. A derivation that
// skipped chunks still merges its windows, so the query reads them, but
// they stay out of PSm: a materialized window is never rewritten, and a
// partial one is replaced, whole, by the next query that needs it. A
// strict query therefore never reads a partial window.
package dmd

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/expr"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Fetcher derives windows from the actual data. The engine implements
// it with one prepared grouped query over dataview, so derivation
// piggybacks on lazy loading exactly as the paper describes (Step 6
// "might require to employ lazy loading as well").
type Fetcher interface {
	// FetchSeries returns one row per window of station/channel within
	// [from, to) nanoseconds that holds samples, as H's columns from
	// window_start_ts on (start, max, min, mean, standard deviation),
	// giving up once ctx is done. Warnings name the chunks a degraded
	// derivation proceeded without; its windows are then partial.
	FetchSeries(ctx context.Context, station, channel string, from, to int64) (*storage.Batch, []exec.Warning, error)
}

// PK is one primary-key tuple of the hourly-window DMd table.
type PK struct {
	Station, Channel string
	WindowStart      int64
}

// Stats reports what one Prepare invocation did (Algorithm 1's work).
type Stats struct {
	// QueryType per Table I; 0 when outside the taxonomy.
	QueryType int
	// PSq, PSm∩PSq and PSu cardinalities.
	Requested, Covered, Computed int
	// Derivation time spent in Step 6.
	Derivation time.Duration
}

// Manager owns one DMd table (the hourly summary view H) and tracks its
// materialized primary-key set. Derivation is serialized: concurrent
// queries needing overlapping windows must not both insert them.
type Manager struct {
	mu      sync.Mutex
	cat     *table.Catalog
	fetcher Fetcher
	// materialized is PSm: the PK set already present in H.
	materialized map[PK]bool
}

// NewManager creates the manager for the catalog's H table; rows H
// already holds (restored by a warm restart from a Snapshot) start out
// in PSm.
func NewManager(cat *table.Catalog, fetcher Fetcher) *Manager {
	m := &Manager{cat: cat, fetcher: fetcher, materialized: make(map[PK]bool)}
	hT, _ := cat.Table(seismic.TableH)
	h := hT.Data().Flatten()
	for i := 0; i < h.Len(); i++ {
		m.materialized[rowPK(h, i)] = true
	}
	return m
}

// MaterializedCount reports |PSm|.
func (m *Manager) MaterializedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.materialized)
}

// Snapshot returns H's materialized rows, in key order: what a restart
// may restore into PSm. Partial windows are left out.
func (m *Manager) Snapshot() *storage.Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	hT, _ := m.cat.Table(seismic.TableH)
	rel := hT.Data()
	if rel.Rows() == len(m.materialized) {
		return rel
	}
	h := rel.Flatten()
	var keep []int32
	for i := 0; i < h.Len(); i++ {
		if m.materialized[rowPK(h, i)] {
			keep = append(keep, int32(i))
		}
	}
	out := storage.NewRelation()
	out.Append(h.Gather(keep))
	return out
}

// rowPK is the primary key of row i of an H batch.
func rowPK(h *storage.Batch, i int) PK {
	return PK{Station: storage.StringAt(h.Cols[0], i), Channel: storage.StringAt(h.Cols[1], i), WindowStart: storage.Int64s(h.Cols[2])[i]}
}

// Prepare runs Algorithm 1 for a compiled query before execution; the
// derivation runs under ctx, the query's context, in its degraded mode.
// The warnings name the chunks a degraded derivation skipped: they
// belong to the query's result.
func (m *Manager) Prepare(ctx context.Context, p *plan.Plan, q *plan.Query) (Stats, []exec.Warning, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st Stats
	// Step 1: find out the type of q; only types 2, 3, 5 refer to DMd.
	st.QueryType = p.Type()
	switch st.QueryType {
	case 2, 3, 5:
	default:
		return st, nil, nil // Step 7: proceed directly.
	}
	// Step 2: predicates over the DMd table's primary key attributes.
	// Step 3: enumerate PSq.
	psq, err := m.enumeratePSq(q)
	if err != nil {
		return st, nil, err
	}
	st.Requested = len(psq)
	// Step 4: PSm is already materialized; check coverage.
	var psu []PK
	for _, k := range psq {
		if m.materialized[k] {
			st.Covered++
		} else {
			// Step 5: PSu ← PSq − PSm.
			psu = append(psu, k)
		}
	}
	if len(psu) == 0 {
		return st, nil, nil // covered: proceed (Step 7).
	}
	// Step 6: compute the unavailable required DMd and insert it.
	t0 := time.Now()
	warns, err := m.derive(ctx, psu)
	if err != nil {
		return st, nil, err
	}
	st.Computed = len(psu)
	st.Derivation = time.Since(t0)
	return st, warns, nil
}

// enumeratePSq implements Steps 2 and 3: collect the PK-attribute
// predicates of q and enumerate every PK tuple they admit. Predicates
// on columns join-equal to a PK attribute count too — the paper's
// Query 2 filters F.station, which the windowdataview join makes
// equivalent to H.window_station. Unbounded attributes fall back to the
// domains known from the given metadata (distinct station/channel pairs
// of F; the time span of S), and the window range is clamped to the
// data's span.
func (m *Manager) enumeratePSq(q *plan.Query) ([]PK, error) {
	alias := m.pkAliases(q.From)
	var stations, channels []string
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	for _, c := range expr.Conjuncts(q.Where) {
		if col, k, ok := expr.EqConst(c); ok {
			switch alias[base(col)] {
			case "window_station":
				stations = append(stations, k.S)
			case "window_channel":
				channels = append(channels, k.S)
			case "window_start_ts":
				if ts, err := constTime(k); err == nil {
					lo, hi = ts, ts+1
				}
			}
			continue
		}
		if col, op, k, ok := expr.RangeConst(c); ok && alias[base(col)] == "window_start_ts" {
			ts, err := constTime(k)
			if err != nil {
				return nil, err
			}
			switch op {
			case expr.GE:
				lo = max(lo, ts)
			case expr.GT:
				lo = max(lo, ts+1)
			case expr.LT:
				hi = min(hi, ts)
			case expr.LE:
				hi = min(hi, ts+1)
			}
		}
	}
	pairs, span := m.domains()
	// Clamp to the data's span: windows outside it hold no data, so
	// there is nothing to derive (or cover) there.
	w := int64(seismic.WindowDuration)
	lo = max(lo, seismic.WindowStart(span[0]))
	hi = min(hi, seismic.WindowStart(span[1]-1)+w)
	if hi <= lo {
		return nil, nil
	}
	var psq []PK
	for _, pr := range pairs {
		if len(stations) > 0 && !slices.Contains(stations, pr[0]) {
			continue
		}
		if len(channels) > 0 && !slices.Contains(channels, pr[1]) {
			continue
		}
		for ws := seismic.WindowStart(lo); ws < hi; ws += w {
			psq = append(psq, PK{Station: pr[0], Channel: pr[1], WindowStart: ws})
		}
	}
	return psq, nil // in key order: pairs sorted, windows ascending
}

// pkAliases maps column base names to the DMd PK attribute they are
// join-equal to, per the view definition of the query's FROM clause.
// The PK attributes always map to themselves.
func (m *Manager) pkAliases(from string) map[string]string {
	alias := map[string]string{
		"window_station":  "window_station",
		"window_channel":  "window_channel",
		"window_start_ts": "window_start_ts",
	}
	v, ok := m.cat.View(from)
	if !ok {
		return alias
	}
	for _, j := range v.Joins {
		lb, rb := base(j.Left), base(j.Right)
		if pk, ok := alias[lb]; ok && alias[rb] == "" {
			alias[rb] = pk
		}
		if pk, ok := alias[rb]; ok && alias[lb] == "" {
			alias[lb] = pk
		}
	}
	return alias
}

// domains returns the distinct (station, channel) pairs of F, sorted,
// and the overall [min, max) time span of S, read off its zone maps.
func (m *Manager) domains() ([][2]string, [2]int64) {
	fT, _ := m.cat.Table(seismic.TableF)
	sT, _ := m.cat.Table(seismic.TableS)
	var pairs [][2]string
	seen := make(map[[2]string]bool)
	sta, ch := fT.Schema.IndexOf("station"), fT.Schema.IndexOf("channel")
	for _, b := range fT.Data().Batches() {
		for i := range b.Len() {
			p := [2]string{storage.StringAt(b.Cols[sta], i), storage.StringAt(b.Cols[ch], i)}
			if !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	slices.SortFunc(pairs, func(a, b [2]string) int { return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1])) })
	var span [2]int64
	s := sT.Data()
	start, end := sT.Schema.IndexOf("start_time"), sT.Schema.IndexOf("end_time")
	for i := range s.Batches() {
		if lo, hi := s.Zone(i, start).Min, s.Zone(i, end).Max; i == 0 {
			span = [2]int64{lo, hi}
		} else {
			span = [2]int64{min(span[0], lo), max(span[1], hi)}
		}
	}
	return pairs, span
}

// derive computes the DMd rows for PSu, grouped by (station, channel)
// as enumerated, and merges them into H at once. Following the paper's
// amortization rule, all DMd attributes of a touched window are derived
// together, by one grouped query per (station, channel) over the range
// its wanted windows span. A wanted window without samples materializes
// as a zero row: deriving "no data here" is itself knowledge. The
// windows of a group whose derivation skipped chunks are merged but
// left out of PSm, and the skipped chunks are returned.
func (m *Manager) derive(ctx context.Context, psu []PK) ([]exec.Warning, error) {
	var stas, chans []string
	var starts []int64
	var vals [4][]float64 // max, min, mean, standard deviation
	var warns []exec.Warning
	var whole []PK
	for lo, hi := 0, 0; lo < len(psu); lo = hi {
		for hi = lo + 1; hi < len(psu) && psu[hi].Station == psu[lo].Station && psu[hi].Channel == psu[lo].Channel; hi++ {
		}
		g := psu[lo:hi]
		rows, skipped, err := m.fetcher.FetchSeries(ctx, g[0].Station, g[0].Channel, g[0].WindowStart, g[len(g)-1].WindowStart+int64(seismic.WindowDuration))
		if err != nil {
			return nil, fmt.Errorf("dmd: deriving %s/%s: %w", g[0].Station, g[0].Channel, err)
		}
		at := make(map[int64]int, rows.Len())
		for r := range rows.Len() {
			at[storage.Int64s(rows.Cols[0])[r]] = r
		}
		for _, k := range g {
			stas, chans, starts = append(stas, k.Station), append(chans, k.Channel), append(starts, k.WindowStart)
			r, ok := at[k.WindowStart]
			for c := range vals {
				v := 0.0
				if ok {
					v = storage.Float64s(rows.Cols[c+1])[r]
				}
				vals[c] = append(vals[c], v)
			}
		}
		if len(skipped) == 0 {
			whole = append(whole, g...)
		}
		warns = append(warns, skipped...)
	}
	hT, _ := m.cat.Table(seismic.TableH)
	// psu holds no materialized key, so the only rows this merge may
	// replace are partial ones: a materialized window is never rewritten.
	err := hT.Merge(storage.NewBatch(
		storage.NewStringColumn(stas), storage.NewStringColumn(chans), storage.NewTimeColumn(starts),
		storage.NewFloat64Column(vals[0]), storage.NewFloat64Column(vals[1]),
		storage.NewFloat64Column(vals[2]), storage.NewFloat64Column(vals[3]),
	), true)
	if err != nil {
		return nil, err
	}
	for _, k := range whole {
		m.materialized[k] = true
	}
	return warns, nil
}

// DeriveAll eagerly materializes the whole DMd space: the eager_dmd
// investment ("computing and saving all DMd as a materialized view").
// It runs strict whatever the engine's degraded mode, so every window
// is whole when it returns, or it fails.
func (m *Manager) DeriveAll() (int, time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	// No predicate: every (station, channel) pair, every window of the
	// data's span.
	psq, err := m.enumeratePSq(&plan.Query{})
	if err != nil {
		return 0, 0, err
	}
	psu := slices.DeleteFunc(psq, func(k PK) bool { return m.materialized[k] })
	if _, err := m.derive(exec.WithDegraded(context.Background(), false), psu); err != nil {
		return 0, 0, err
	}
	return len(psu), time.Since(start), nil
}

// base strips a column name's qualifier.
func base(qualified string) string { return qualified[strings.LastIndexByte(qualified, '.')+1:] }

func constTime(k *expr.Const) (int64, error) {
	switch k.K {
	case storage.KindTime, storage.KindInt64:
		return k.I, nil
	case storage.KindString:
		// Reuse the expression layer's coercion by binding a
		// comparison against a synthetic time column.
		cp := *k
		e := expr.NewCmp(expr.EQ, expr.Col("t"), &cp)
		if _, err := e.Bind([]string{"t"}, []storage.Kind{storage.KindTime}); err != nil {
			return 0, err
		}
		return cp.I, nil
	default:
		return 0, fmt.Errorf("dmd: %v is not a timestamp", k.K)
	}
}
