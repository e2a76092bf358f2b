package dmd

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/expr"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// hour is one window in nanoseconds.
const hour = int64(time.Hour)

var day0 = time.Date(2010, 4, 20, 0, 0, 0, 0, time.UTC).UnixNano()

// fixtureCatalog registers two stations with data spanning one day.
func fixtureCatalog(t *testing.T) *table.Catalog {
	t.Helper()
	cat := seismic.NewCatalog()
	f, _ := cat.Table(seismic.TableF)
	s, _ := cat.Table(seismic.TableS)
	stations := []string{"FIAM", "ISK"}
	for i, st := range stations {
		err := f.Append(storage.NewBatch(
			storage.NewInt64Column([]int64{int64(i)}),
			storage.NewStringColumn([]string{fmt.Sprintf("repo/%s.msl", st)}),
			storage.NewStringColumn([]string{"IV"}),
			storage.NewStringColumn([]string{st}),
			storage.NewStringColumn([]string{"00"}),
			storage.NewStringColumn([]string{"HHZ"}),
			storage.NewStringColumn([]string{"D"}),
			storage.NewInt64Column([]int64{10}),
			storage.NewStringColumn([]string{"LE"}),
		))
		if err != nil {
			t.Fatal(err)
		}
		err = s.Append(storage.NewBatch(
			storage.NewInt64Column([]int64{int64(i)}),
			storage.NewInt64Column([]int64{0}),
			storage.NewTimeColumn([]int64{day0}),
			storage.NewTimeColumn([]int64{day0 + 24*hour}),
			storage.NewFloat64Column([]float64{20}),
			storage.NewInt64Column([]int64{100}),
		))
		if err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// rampFetcher derives a deterministic ramp: the window of hour h of the
// day holds max h+0.5, min h-0.5, mean h and standard deviation h/10,
// except every fifth hour, which holds no samples. Derivations of the
// stations in skip proceed without chunk 7.
type rampFetcher struct {
	calls int
	skip  map[string]bool
}

func (rf *rampFetcher) FetchSeries(_ context.Context, station, channel string, from, to int64) (*storage.Batch, []exec.Warning, error) {
	rf.calls++
	var starts []int64
	var maxs, mins, means, sdevs []float64
	for ws := from; ws < to; ws += hour {
		h := float64((ws - day0) / hour)
		if int(h)%5 == 4 {
			continue
		}
		starts = append(starts, ws)
		maxs, mins, means, sdevs = append(maxs, h+0.5), append(mins, h-0.5), append(means, h), append(sdevs, h/10)
	}
	rows := storage.NewBatch(storage.NewTimeColumn(starts), storage.NewFloat64Column(maxs),
		storage.NewFloat64Column(mins), storage.NewFloat64Column(means), storage.NewFloat64Column(sdevs))
	if rf.skip[station] {
		return rows, []exec.Warning{{Table: seismic.TableD, Chunk: 7, Reason: "unavailable"}}, nil
	}
	return rows, nil, nil
}

func t5Query(loHour, hiHour int) *plan.Query {
	return &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggAvg, Expr: expr.Col("D.sample_value"), Alias: "v"}},
		From:   seismic.ViewWindowData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("FIAM")),
			expr.NewCmp(expr.EQ, expr.Col("F.channel"), expr.Str("HHZ")),
			expr.NewCmp(expr.GE, expr.Col("H.window_start_ts"), expr.Time(day0+int64(loHour)*hour)),
			expr.NewCmp(expr.LT, expr.Col("H.window_start_ts"), expr.Time(day0+int64(hiHour)*hour)),
		}),
	}
}

func prepare(t *testing.T, m *Manager, cat *table.Catalog, q *plan.Query) Stats {
	t.Helper()
	st, warns := prepareWarned(t, m, cat, q)
	if len(warns) > 0 {
		t.Fatalf("warnings %v", warns)
	}
	return st
}

func prepareWarned(t *testing.T, m *Manager, cat *table.Catalog, q *plan.Query) (Stats, []exec.Warning) {
	t.Helper()
	p, err := plan.Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	st, warns, err := m.Prepare(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	return st, warns
}

func TestAlgorithm1StepsOnT5(t *testing.T) {
	cat := fixtureCatalog(t)
	rf := &rampFetcher{}
	m := NewManager(cat, rf)
	// Like the paper's worked example: assume a previous query already
	// materialized hour 23 of 2010-04-20... here hours 2-3.
	st1 := prepare(t, m, cat, t5Query(2, 4))
	if st1.QueryType != 5 {
		t.Fatalf("type = %d", st1.QueryType)
	}
	if st1.Requested != 2 || st1.Covered != 0 || st1.Computed != 2 {
		t.Fatalf("first stats = %+v", st1)
	}
	// Overlapping request: hours 2-6 → PSm covers 2, PSu = {4, 5}.
	st2 := prepare(t, m, cat, t5Query(2, 6))
	if st2.Requested != 4 || st2.Covered != 2 || st2.Computed != 2 {
		t.Fatalf("second stats = %+v", st2)
	}
	// Fully covered request computes nothing.
	st3 := prepare(t, m, cat, t5Query(3, 5))
	if st3.Computed != 0 || st3.Covered != 2 {
		t.Fatalf("third stats = %+v", st3)
	}
	if m.MaterializedCount() != 4 {
		t.Fatalf("materialized = %d", m.MaterializedCount())
	}
	// One fetch per derivation round (grouped per station/channel).
	if rf.calls != 2 {
		t.Fatalf("fetch calls = %d", rf.calls)
	}
}

func TestDerivedValuesAreCorrect(t *testing.T) {
	cat := fixtureCatalog(t)
	m := NewManager(cat, &rampFetcher{})
	prepare(t, m, cat, t5Query(3, 5)) // hour 3 holds samples, hour 4 none
	h, _ := cat.Table(seismic.TableH)
	flat := h.Data().Flatten()
	if flat.Len() != 2 {
		t.Fatalf("H rows = %d", flat.Len())
	}
	get := func(col string, r int) float64 {
		return storage.Float64s(flat.Cols[h.Schema.IndexOf(col)])[r]
	}
	if get("window_max_val", 0) != 3.5 || get("window_min_val", 0) != 2.5 || get("window_mean_val", 0) != 3 || get("window_std_dev", 0) != 0.3 {
		t.Fatalf("summary wrong: max=%v min=%v mean=%v sdev=%v", get("window_max_val", 0), get("window_min_val", 0), get("window_mean_val", 0), get("window_std_dev", 0))
	}
	for _, col := range []string{"window_max_val", "window_min_val", "window_mean_val", "window_std_dev"} {
		if get(col, 1) != 0 {
			t.Fatalf("empty window's %s = %v, want 0", col, get(col, 1))
		}
	}
	sta := flat.Cols[h.Schema.IndexOf("window_station")].(*storage.StringColumn).Value(0)
	if sta != "FIAM" {
		t.Fatalf("station = %s", sta)
	}
}

func TestT1QueriesSkipDerivation(t *testing.T) {
	cat := fixtureCatalog(t)
	rf := &rampFetcher{}
	m := NewManager(cat, rf)
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableF,
	}
	st := prepare(t, m, cat, q)
	if st.QueryType != 1 || st.Requested != 0 || rf.calls != 0 {
		t.Fatalf("stats = %+v calls = %d", st, rf.calls)
	}
}

func TestT2DirectOnH(t *testing.T) {
	cat := fixtureCatalog(t)
	m := NewManager(cat, &rampFetcher{})
	q := &plan.Query{
		Select: []plan.SelectItem{{Expr: expr.Col("window_max_val")}},
		From:   seismic.TableH,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("window_station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("window_channel"), expr.Str("HHZ")),
			expr.NewCmp(expr.GE, expr.Col("window_start_ts"), expr.Time(day0)),
			expr.NewCmp(expr.LT, expr.Col("window_start_ts"), expr.Time(day0+2*hour)),
		}),
	}
	st := prepare(t, m, cat, q)
	if st.QueryType != 2 {
		t.Fatalf("type = %d", st.QueryType)
	}
	if st.Requested != 2 || st.Computed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnboundedPredicatesFallBackToDomain(t *testing.T) {
	cat := fixtureCatalog(t)
	m := NewManager(cat, &rampFetcher{})
	// No station/channel/time predicates: PSq = all pairs × all
	// windows in span = 2 × 24.
	q := &plan.Query{
		Select: []plan.SelectItem{{Expr: expr.Col("window_max_val")}},
		From:   seismic.TableH,
	}
	st := prepare(t, m, cat, q)
	if st.Requested != 48 {
		t.Fatalf("requested = %d, want 48", st.Requested)
	}
	if m.MaterializedCount() != 48 {
		t.Fatalf("materialized = %d", m.MaterializedCount())
	}
}

func TestWindowStartTruncation(t *testing.T) {
	ts := day0 + 3*hour + 1234
	if got := seismic.WindowStart(ts); got != day0+3*hour {
		t.Fatalf("window start = %d", got)
	}
	if got := seismic.WindowStart(day0); got != day0 {
		t.Fatal("aligned timestamp moved")
	}
	// Negative timestamps truncate toward -inf.
	if got := seismic.WindowStart(-1); got != -hour {
		t.Fatalf("negative window start = %d", got)
	}
}

func TestEmptyWindowsMaterializeAsKnowledge(t *testing.T) {
	cat := fixtureCatalog(t)
	// Hours 4 and 9 hold no samples: gaps in the data.
	m := NewManager(cat, &rampFetcher{})
	st := prepare(t, m, cat, t5Query(4, 5))
	if st.Computed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The second query over the same window must not re-derive.
	st2 := prepare(t, m, cat, t5Query(4, 5))
	if st2.Computed != 0 || st2.Covered != 1 {
		t.Fatalf("reuse stats = %+v", st2)
	}
}

// failingFetcher fails every derivation.
type failingFetcher struct{}

func (failingFetcher) FetchSeries(context.Context, string, string, int64, int64) (*storage.Batch, []exec.Warning, error) {
	return nil, nil, fmt.Errorf("repository unreachable")
}

func TestFetcherErrorPropagates(t *testing.T) {
	cat := fixtureCatalog(t)
	m := NewManager(cat, failingFetcher{})
	p, err := plan.Build(cat, t5Query(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Prepare(context.Background(), p, t5Query(0, 1)); err == nil {
		t.Fatal("fetcher error swallowed")
	}
}

func TestDeriveAll(t *testing.T) {
	cat := fixtureCatalog(t)
	rf := &rampFetcher{}
	m := NewManager(cat, rf)
	n, dur, err := m.DeriveAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 48 { // 2 pairs × 24 windows
		t.Fatalf("derived = %d", n)
	}
	if dur <= 0 {
		t.Fatal("no duration")
	}
	// Idempotent: everything is covered now.
	n2, _, err := m.DeriveAll()
	if err != nil || n2 != 0 {
		t.Fatalf("re-derive = %d, %v", n2, err)
	}
	h, _ := cat.Table(seismic.TableH)
	if h.Rows() != 48 {
		t.Fatalf("H rows = %d", h.Rows())
	}
}

// hBytes encodes H's rows as stored.
func hBytes(t *testing.T, cat *table.Catalog) []byte {
	t.Helper()
	h, _ := cat.Table(seismic.TableH)
	b, err := storage.EncodeRelation(nil, h.Data())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHIndependentOfQueryOrder: the same windows derived by queries in
// two different orders leave H byte for byte the same, in key order.
func TestHIndependentOfQueryOrder(t *testing.T) {
	stations := func(q *plan.Query, st string) *plan.Query {
		q.Where = expr.Conjoin(append([]expr.Expr{expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str(st))}, expr.Conjuncts(q.Where)[1:]...))
		return q
	}
	queries := []*plan.Query{t5Query(6, 9), stations(t5Query(0, 12), "ISK"), t5Query(1, 4), t5Query(12, 20), stations(t5Query(10, 11), "ISK")}
	var encoded [2][]byte
	for run, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 1, 0, 2}} {
		cat := fixtureCatalog(t)
		m := NewManager(cat, &rampFetcher{})
		for _, qi := range order {
			prepare(t, m, cat, queries[qi])
		}
		encoded[run] = hBytes(t, cat)
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Fatal("H differs between query orders")
	}
	cat := fixtureCatalog(t)
	m := NewManager(cat, &rampFetcher{})
	prepare(t, m, cat, queries[0])
	h, _ := cat.Table(seismic.TableH)
	flat := h.Data().Flatten()
	for i := 1; i < flat.Len(); i++ {
		a, b := rowPK(flat, i-1), rowPK(flat, i)
		if a.Station > b.Station || a.Station == b.Station && a.WindowStart >= b.WindowStart {
			t.Fatalf("row %d %+v after %+v", i, b, a)
		}
	}
}

// TestDegradedDerivationStaysPartial: a derivation that skipped chunks
// merges its windows, so the query reads them, and returns the skipped
// chunks, but leaves PSm and the snapshot as they were; the next query
// that needs those windows derives them again and replaces the partial
// rows.
func TestDegradedDerivationStaysPartial(t *testing.T) {
	cat := fixtureCatalog(t)
	rf := &rampFetcher{skip: map[string]bool{"FIAM": true}}
	m := NewManager(cat, rf)
	st, warns := prepareWarned(t, m, cat, t5Query(1, 3))
	if st.Computed != 2 || len(warns) != 1 || warns[0].Chunk != 7 {
		t.Fatalf("stats %+v, warnings %v", st, warns)
	}
	h, _ := cat.Table(seismic.TableH)
	if h.Rows() != 2 || m.MaterializedCount() != 0 || m.Snapshot().Rows() != 0 {
		t.Fatalf("H rows %d, materialized %d, snapshot rows %d; want 2, 0, 0", h.Rows(), m.MaterializedCount(), m.Snapshot().Rows())
	}
	// Still degraded: derived again, still partial.
	if st, warns = prepareWarned(t, m, cat, t5Query(1, 3)); st.Computed != 2 || len(warns) != 1 {
		t.Fatalf("stats %+v, warnings %v", st, warns)
	}
	rf.skip = nil
	if st := prepare(t, m, cat, t5Query(1, 4)); st.Computed != 3 || st.Covered != 0 {
		t.Fatalf("after the heal: %+v", st)
	}
	if h.Rows() != 3 || m.MaterializedCount() != 3 || m.Snapshot().Rows() != 3 {
		t.Fatalf("H rows %d, materialized %d, snapshot rows %d; want 3 each", h.Rows(), m.MaterializedCount(), m.Snapshot().Rows())
	}
	if st := prepare(t, m, cat, t5Query(1, 3)); st.Computed != 0 || rf.calls != 3 {
		t.Fatalf("whole windows derived again: %+v, %d calls", st, rf.calls)
	}
}

// TestCoveredPrepareDoesNoWorkOverF: F's pairs and S's span are read
// once, by NewManager, so a covered Prepare allocates as much over an F
// of 502 stations as over one of 2 — it neither walks F's rows nor
// collects its pairs.
func TestCoveredPrepareDoesNoWorkOverF(t *testing.T) {
	allocs := func(extra int) float64 {
		cat := fixtureCatalog(t)
		f, _ := cat.Table(seismic.TableF)
		col := func(format string) *storage.StringColumn {
			vals := make([]string, extra)
			for i := range vals {
				vals[i] = fmt.Sprintf(format, i)
			}
			return storage.NewStringColumn(vals)
		}
		ids, rate := make([]int64, extra), make([]int64, extra)
		for i := range ids {
			ids[i], rate[i] = int64(2+i), 10
		}
		if extra > 0 {
			if err := f.Append(storage.NewBatch(storage.NewInt64Column(ids), col("repo/X%d.msl"), col("IV"),
				col("X%d"), col("00"), col("HHZ"), col("D"), storage.NewInt64Column(rate), col("LE"))); err != nil {
				t.Fatal(err)
			}
		}
		m := NewManager(cat, &rampFetcher{})
		q := t5Query(2, 4)
		prepare(t, m, cat, q) // derives hours 2-3: every later call is covered
		p, err := plan.Build(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if st, _, err := m.Prepare(context.Background(), p, q); err != nil || st.Covered != 2 || st.Computed != 0 {
				t.Fatalf("stats %+v, err %v", st, err)
			}
		})
	}
	if small, large := allocs(0), allocs(500); large != small {
		t.Fatalf("a covered Prepare allocates %v times over 502 stations, %v over 2", large, small)
	}
}
