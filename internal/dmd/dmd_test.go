package dmd

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

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

// rampFetcher serves a deterministic series: value = hour-index within
// the day, 4 samples per hour.
type rampFetcher struct{ calls int }

func (rf *rampFetcher) FetchSeries(_ context.Context, station, channel string, from, to int64) ([]int64, []float64, error) {
	rf.calls++
	var ts []int64
	var vs []float64
	step := hour / 4
	for x := from; x < to; x += step {
		ts = append(ts, x)
		vs = append(vs, float64((x-day0)/hour))
	}
	return ts, vs, nil
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
	p, err := plan.Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Prepare(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
	prepare(t, m, cat, t5Query(3, 4)) // hour 3: constant value 3
	h, _ := cat.Table(seismic.TableH)
	flat := h.Data().Flatten()
	if flat.Len() != 1 {
		t.Fatalf("H rows = %d", flat.Len())
	}
	get := func(col string) float64 {
		return storage.Float64s(flat.Cols[h.Schema.IndexOf(col)])[0]
	}
	if get("window_max_val") != 3 || get("window_min_val") != 3 || get("window_mean_val") != 3 {
		t.Fatalf("summary wrong: max=%v min=%v mean=%v", get("window_max_val"), get("window_min_val"), get("window_mean_val"))
	}
	if get("window_std_dev") != 0 {
		t.Fatalf("stddev = %v", get("window_std_dev"))
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
	// A fetcher that returns nothing: gaps in the data.
	empty := fetcherFunc(func(string, string, int64, int64) ([]int64, []float64, error) {
		return nil, nil, nil
	})
	m := NewManager(cat, empty)
	st := prepare(t, m, cat, t5Query(1, 3))
	if st.Computed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The second query over the same windows must not re-derive.
	st2 := prepare(t, m, cat, t5Query(1, 3))
	if st2.Computed != 0 || st2.Covered != 2 {
		t.Fatalf("reuse stats = %+v", st2)
	}
}

type fetcherFunc func(station, channel string, from, to int64) ([]int64, []float64, error)

func (f fetcherFunc) FetchSeries(_ context.Context, station, channel string, from, to int64) ([]int64, []float64, error) {
	return f(station, channel, from, to)
}

func TestFetcherErrorPropagates(t *testing.T) {
	cat := fixtureCatalog(t)
	failing := fetcherFunc(func(string, string, int64, int64) ([]int64, []float64, error) {
		return nil, nil, fmt.Errorf("repository unreachable")
	})
	m := NewManager(cat, failing)
	p, err := plan.Build(cat, t5Query(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Prepare(context.Background(), p, t5Query(0, 1)); err == nil {
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
	m.Reset()
	if m.MaterializedCount() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSummarizeStddev(t *testing.T) {
	// Hand-checked: values 1..5 in one window.
	times := make([]int64, 5)
	vals := []float64{1, 2, 3, 4, 5}
	for i := range times {
		times[i] = day0 + int64(i)
	}
	rows := summarize(times, vals, map[int64]bool{day0: true})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.max != 5 || r.min != 1 || r.mean != 3 {
		t.Fatalf("row = %+v", r)
	}
	if math.Abs(r.sdev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("sdev = %v", r.sdev)
	}
}
