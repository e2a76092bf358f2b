// Package dmd implements incremental metadata derivation: derived-
// metadata (DMd) tables as partially materialized views, maintained by
// the paper's Algorithm 1. When a query refers to a DMd table, the
// manager enumerates the primary-key space the query touches (PSq),
// subtracts the already materialized set (PSm), and computes the
// uncovered remainder (PSu) through an internal T2-style fetch — which
// itself exploits two-stage execution and lazy loading — before the
// user's query proceeds.
package dmd

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Fetcher retrieves the actual data needed to derive metadata. The
// engine implements it with a two-stage T4 query, so derivation
// piggybacks on lazy loading exactly as the paper describes (Step 6
// "might require to employ lazy loading as well").
type Fetcher interface {
	// FetchSeries returns (time, value) pairs of one station/channel
	// within [from, to) nanoseconds, giving up once ctx is done.
	FetchSeries(ctx context.Context, station, channel string, from, to int64) ([]int64, []float64, error)
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
// already holds (restored by a warm restart) start out in PSm.
func NewManager(cat *table.Catalog, fetcher Fetcher) *Manager {
	m := &Manager{cat: cat, fetcher: fetcher, materialized: make(map[PK]bool)}
	hT, _ := cat.Table(seismic.TableH)
	if h := hT.Data().Flatten(); h.Len() > 0 {
		sta, ch := h.Cols[0].(*storage.StringColumn), h.Cols[1].(*storage.StringColumn)
		for i, ws := range storage.Int64s(h.Cols[2]) {
			m.materialized[PK{Station: sta.Value(i), Channel: ch.Value(i), WindowStart: ws}] = true
		}
	}
	return m
}

// MaterializedCount reports |PSm|.
func (m *Manager) MaterializedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.materialized)
}

// Reset forgets all materialized state (used between experiments; the
// caller must also truncate H).
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.materialized = make(map[PK]bool)
}

// Prepare runs Algorithm 1 for a compiled query before execution; the
// derivation fetches its series under ctx, the query's context.
func (m *Manager) Prepare(ctx context.Context, p *plan.Plan, q *plan.Query) (Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st Stats
	// Step 1: find out the type of q; only types 2, 3, 5 refer to DMd.
	st.QueryType = p.Type()
	switch st.QueryType {
	case 2, 3, 5:
	default:
		return st, nil // Step 7: proceed directly.
	}
	// Step 2: predicates over the DMd table's primary key attributes.
	// Step 3: enumerate PSq.
	psq, err := m.enumeratePSq(q)
	if err != nil {
		return st, err
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
		return st, nil // covered: proceed (Step 7).
	}
	// Step 6: compute the unavailable required DMd and insert it.
	t0 := time.Now()
	if err := m.derive(ctx, psu); err != nil {
		return st, err
	}
	st.Computed = len(psu)
	st.Derivation = time.Since(t0)
	return st, nil
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
				lo = maxI(lo, ts)
			case expr.GT:
				lo = maxI(lo, ts+1)
			case expr.LT:
				hi = minI(hi, ts)
			case expr.LE:
				hi = minI(hi, ts+1)
			}
		}
	}
	pairs, span, err := m.domains()
	if err != nil {
		return nil, err
	}
	// Clamp to the data's span: windows outside it hold no data, so
	// there is nothing to derive (or cover) there.
	w := int64(seismic.WindowDuration)
	lo = maxI(lo, seismic.WindowStart(span[0]))
	hi = minI(hi, seismic.WindowStart(span[1]-1)+w)
	if hi <= lo {
		return nil, nil
	}
	var psq []PK
	for _, pr := range pairs {
		if len(stations) > 0 && !containsStr(stations, pr[0]) {
			continue
		}
		if len(channels) > 0 && !containsStr(channels, pr[1]) {
			continue
		}
		for ws := seismic.WindowStart(lo); ws < hi; ws += w {
			psq = append(psq, PK{Station: pr[0], Channel: pr[1], WindowStart: ws})
		}
	}
	return psq, nil
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

// domains returns the distinct (station, channel) pairs of F and the
// overall [min, max) time span of S.
func (m *Manager) domains() ([][2]string, [2]int64, error) {
	fT, _ := m.cat.Table(seismic.TableF)
	sT, _ := m.cat.Table(seismic.TableS)
	fFlat := fT.Data().Flatten()
	var pairs [][2]string
	seen := make(map[[2]string]bool)
	if fFlat.Len() > 0 {
		stCol := fFlat.Cols[fT.Schema.IndexOf("station")].(*storage.StringColumn)
		chCol := fFlat.Cols[fT.Schema.IndexOf("channel")].(*storage.StringColumn)
		for i := 0; i < fFlat.Len(); i++ {
			p := [2]string{stCol.Value(i), chCol.Value(i)}
			if !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	span := [2]int64{0, 0}
	sFlat := sT.Data().Flatten()
	if sFlat.Len() > 0 {
		starts := storage.Int64s(sFlat.Cols[sT.Schema.IndexOf("start_time")])
		ends := storage.Int64s(sFlat.Cols[sT.Schema.IndexOf("end_time")])
		span[0], span[1] = starts[0], ends[0]
		for i := range starts {
			span[0] = minI(span[0], starts[i])
			span[1] = maxI(span[1], ends[i])
		}
	}
	return pairs, span, nil
}

// derive computes and inserts the DMd rows for PSu. Following the
// paper's amortization rule, all DMd attributes of a touched window are
// derived together. Windows are grouped per (station, channel) and
// fetched as one contiguous range to bound the number of internal
// queries.
func (m *Manager) derive(ctx context.Context, psu []PK) error {
	type group struct {
		station, channel string
		lo, hi           int64
		want             map[int64]bool
	}
	groups := make(map[[2]string]*group)
	var order [][2]string
	w := int64(seismic.WindowDuration)
	for _, k := range psu {
		gk := [2]string{k.Station, k.Channel}
		g, ok := groups[gk]
		if !ok {
			g = &group{station: k.Station, channel: k.Channel, lo: k.WindowStart, hi: k.WindowStart + w, want: make(map[int64]bool)}
			groups[gk] = g
			order = append(order, gk)
		}
		g.lo = minI(g.lo, k.WindowStart)
		g.hi = maxI(g.hi, k.WindowStart+w)
		g.want[k.WindowStart] = true
	}
	hT, _ := m.cat.Table(seismic.TableH)
	for _, gk := range order {
		g := groups[gk]
		times, vals, err := m.fetcher.FetchSeries(ctx, g.station, g.channel, g.lo, g.hi)
		if err != nil {
			return fmt.Errorf("dmd: deriving %s/%s: %w", g.station, g.channel, err)
		}
		rows := summarize(times, vals, g.want)
		if err := m.insert(hT, g.station, g.channel, rows); err != nil {
			return err
		}
		for ws := range g.want {
			m.materialized[PK{Station: g.station, Channel: g.channel, WindowStart: ws}] = true
		}
	}
	return nil
}

// windowRow is one derived summary row.
type windowRow struct {
	start                int64
	max, min, mean, sdev float64
	n                    int64
}

// summarize computes the window summaries for the wanted window starts.
// Windows with no data still materialize (with zero counts), so the
// coverage check will not re-derive them — deriving "no data here" is
// itself knowledge.
func summarize(times []int64, vals []float64, want map[int64]bool) []windowRow {
	acc := make(map[int64]*windowRow)
	for i, ts := range times {
		ws := seismic.WindowStart(ts)
		if !want[ws] {
			continue
		}
		r, ok := acc[ws]
		if !ok {
			r = &windowRow{start: ws, max: math.Inf(-1), min: math.Inf(1)}
			acc[ws] = r
		}
		v := vals[i]
		r.n++
		r.mean += v
		r.max = math.Max(r.max, v)
		r.min = math.Min(r.min, v)
	}
	// Second pass for the standard deviation (two-pass is exact).
	means := make(map[int64]float64, len(acc))
	for ws, r := range acc {
		r.mean /= float64(r.n)
		means[ws] = r.mean
	}
	ss := make(map[int64]float64, len(acc))
	for i, ts := range times {
		ws := seismic.WindowStart(ts)
		if r, ok := acc[ws]; ok {
			d := vals[i] - r.mean
			ss[ws] += d * d
		}
	}
	var out []windowRow
	for ws := range want {
		if r, ok := acc[ws]; ok {
			if r.n > 1 {
				r.sdev = math.Sqrt(ss[ws] / float64(r.n-1))
			}
			out = append(out, *r)
		} else {
			out = append(out, windowRow{start: ws, max: 0, min: 0, mean: 0, sdev: 0})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

func (m *Manager) insert(hT *table.Table, station, channel string, rows []windowRow) error {
	if len(rows) == 0 {
		return nil
	}
	n := len(rows)
	stas := make([]string, n)
	chans := make([]string, n)
	starts := make([]int64, n)
	maxs := make([]float64, n)
	mins := make([]float64, n)
	means := make([]float64, n)
	sdevs := make([]float64, n)
	for i, r := range rows {
		stas[i], chans[i], starts[i] = station, channel, r.start
		maxs[i], mins[i], means[i], sdevs[i] = r.max, r.min, r.mean, r.sdev
		if r.n == 0 {
			maxs[i], mins[i] = 0, 0
		}
	}
	return hT.Append(storage.NewBatch(
		storage.NewStringColumn(stas),
		storage.NewStringColumn(chans),
		storage.NewTimeColumn(starts),
		storage.NewFloat64Column(maxs),
		storage.NewFloat64Column(mins),
		storage.NewFloat64Column(means),
		storage.NewFloat64Column(sdevs),
	))
}

// DeriveAll eagerly materializes the whole DMd space: the eager_dmd
// investment ("computing and saving all DMd as a materialized view").
func (m *Manager) DeriveAll() (int, time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	pairs, span, err := m.domains()
	if err != nil {
		return 0, 0, err
	}
	if span[1] <= span[0] {
		return 0, time.Since(start), nil
	}
	var psu []PK
	w := int64(seismic.WindowDuration)
	for _, pr := range pairs {
		for ws := seismic.WindowStart(span[0]); ws < span[1]; ws += w {
			k := PK{Station: pr[0], Channel: pr[1], WindowStart: ws}
			if !m.materialized[k] {
				psu = append(psu, k)
			}
		}
	}
	if err := m.derive(context.Background(), psu); err != nil {
		return 0, 0, err
	}
	return len(psu), time.Since(start), nil
}

func base(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

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

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
