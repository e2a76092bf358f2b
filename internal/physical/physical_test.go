package physical

import (
	"math"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/index"
	"sommelier/internal/storage"
)

func relOf(batches ...*storage.Batch) *storage.Relation {
	r := storage.NewRelation()
	for _, b := range batches {
		r.Append(b)
	}
	return r
}

func metaRel() (*storage.Relation, []string, []storage.Kind) {
	b := storage.NewBatch(
		storage.NewInt64Column([]int64{1, 2, 3}),
		storage.NewStringColumn([]string{"ISK", "FIAM", "ISK"}),
	)
	return relOf(b), []string{"F.file_id", "F.station"}, []storage.Kind{storage.KindInt64, storage.KindString}
}

func dataRel() (*storage.Relation, []string, []storage.Kind) {
	b1 := storage.NewBatch(
		storage.NewInt64Column([]int64{1, 1, 2}),
		storage.NewFloat64Column([]float64{10, 20, 30}),
	)
	b2 := storage.NewBatch(
		storage.NewInt64Column([]int64{3, 3}),
		storage.NewFloat64Column([]float64{40, 50}),
	)
	return relOf(b1, b2), []string{"D.file_id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
}

func TestRelScan(t *testing.T) {
	rel, names, kinds := metaRel()
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(s, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestRelScanWithPredicate(t *testing.T) {
	rel, names, kinds := metaRel()
	pred := expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("ISK"))
	s, err := NewRelScan(rel, names, kinds, pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(s, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("rows = %d", out.Rows())
	}
	// Scan predicates must not mutate the caller's expression: the
	// original is still unbound.
	if _, err := NewRelScan(rel, names, kinds, pred); err != nil {
		t.Fatalf("rebinding: %v", err)
	}
	// Non-boolean predicate rejected.
	if _, err := NewRelScan(rel, names, kinds, expr.Col("F.file_id")); err == nil {
		t.Fatal("non-boolean predicate accepted")
	}
}

func TestFilter(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	f, err := NewFilter(s, expr.NewCmp(expr.GE, expr.Col("D.val"), expr.Float(30)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(f, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestProject(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	p, err := NewProject(s, []string{"double"}, []expr.Expr{
		expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(p, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat := out.Flatten()
	if flat.Width() != 1 || flat.Len() != 5 {
		t.Fatalf("shape = %dx%d", flat.Width(), flat.Len())
	}
	if got := storage.Float64s(flat.Cols[0])[0]; got != 20 {
		t.Fatalf("first = %v", got)
	}
	if p.Names()[0] != "double" {
		t.Fatal("name lost")
	}
}

func TestHashJoin(t *testing.T) {
	mrel, mnames, mkinds := metaRel()
	drel, dnames, dkinds := dataRel()
	ms, _ := NewRelScan(mrel, mnames, mkinds, nil)
	ds, _ := NewRelScan(drel, dnames, dkinds, nil)
	j, err := NewHashJoin(ms, ds, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5 {
		t.Fatalf("rows = %d", out.Rows())
	}
	flat := out.Flatten()
	if flat.Width() != 4 {
		t.Fatalf("width = %d", flat.Width())
	}
	// Every output row must satisfy the join condition.
	l := storage.Int64s(flat.Cols[0])
	r := storage.Int64s(flat.Cols[2])
	for i := range l {
		if l[i] != r[i] {
			t.Fatalf("row %d: %d != %d", i, l[i], r[i])
		}
	}
}

func TestHashJoinEmptyBuild(t *testing.T) {
	mrel := storage.NewRelation()
	drel, dnames, dkinds := dataRel()
	ms, _ := NewRelScan(mrel, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
	ds, _ := NewRelScan(drel, dnames, dkinds, nil)
	j, err := NewHashJoin(ms, ds, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 0 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestHashJoinValidation(t *testing.T) {
	mrel, mnames, mkinds := metaRel()
	ms, _ := NewRelScan(mrel, mnames, mkinds, nil)
	ms2, _ := NewRelScan(mrel, mnames, mkinds, nil)
	if _, err := NewHashJoin(ms, ms2, []int{0}, []int{}); err == nil {
		t.Fatal("mismatched key lists accepted")
	}
	if _, err := NewHashJoin(ms, ms2, []int{1}, []int{0}); err == nil {
		t.Fatal("string-int join accepted")
	}
}

func TestCrossJoin(t *testing.T) {
	mrel, mnames, mkinds := metaRel()
	drel, dnames, dkinds := dataRel()
	ms, _ := NewRelScan(mrel, mnames, mkinds, nil)
	ds, _ := NewRelScan(drel, dnames, dkinds, nil)
	c := NewCrossJoin(ms, ds)
	out, err := Collect(c, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 15 { // 3 × 5
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestMultiRelScan(t *testing.T) {
	// The union of several relations (a query's selected chunks) is one
	// scan whose batch list concatenates them in slice order.
	rel1, names, kinds := dataRel()
	rel2, _, _ := dataRel()
	s, err := NewMultiRelScan([]*storage.Relation{rel1, rel2}, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(s, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 10 {
		t.Fatalf("rows = %d", out.Rows())
	}
}

func TestEmpty(t *testing.T) {
	e := NewEmpty([]string{"a"}, []storage.Kind{storage.KindInt64})
	out, err := Collect(e, DrainOpts{})
	if err != nil || out.Rows() != 0 {
		t.Fatalf("empty: %v %d", err, out.Rows())
	}
}

func TestIndexScan(t *testing.T) {
	rel, names, kinds := metaRel()
	flat := rel.Flatten()
	ix, err := index.BuildHash(flat, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewIndexScan(ix, flat, names, kinds, index.Key{S0: "ISK"})
	out, err := Collect(s, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("rows = %d", out.Rows())
	}
	s2 := NewIndexScan(ix, flat, names, kinds, index.Key{S0: "absent"})
	out2, _ := Collect(s2, DrainOpts{})
	if out2.Rows() != 0 {
		t.Fatal("phantom rows")
	}
}

func TestGlobalAggregates(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	agg, err := NewHashAggregate(s, nil, []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggSum, Arg: expr.Col("D.val"), Name: "sum"},
		{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
		{Func: AggMin, Arg: expr.Col("D.val"), Name: "min"},
		{Func: AggMax, Arg: expr.Col("D.val"), Name: "max"},
		{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat := out.Flatten()
	if flat.Len() != 1 {
		t.Fatalf("groups = %d", flat.Len())
	}
	if n := storage.Int64s(flat.Cols[0])[0]; n != 5 {
		t.Fatalf("count = %d", n)
	}
	if sum := storage.Float64s(flat.Cols[1])[0]; sum != 150 {
		t.Fatalf("sum = %v", sum)
	}
	if avg := storage.Float64s(flat.Cols[2])[0]; avg != 30 {
		t.Fatalf("avg = %v", avg)
	}
	if mn := storage.Float64s(flat.Cols[3])[0]; mn != 10 {
		t.Fatalf("min = %v", mn)
	}
	if mx := storage.Float64s(flat.Cols[4])[0]; mx != 50 {
		t.Fatalf("max = %v", mx)
	}
	// Sample stddev of {10..50 step 10} = sqrt(250) ≈ 15.811.
	if sd := storage.Float64s(flat.Cols[5])[0]; math.Abs(sd-math.Sqrt(250)) > 1e-9 {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestGroupedAggregate(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	agg, err := NewHashAggregate(s, []int{0}, []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggSum, Arg: expr.Col("D.file_id"), Name: "isum"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat := out.Flatten()
	if flat.Len() != 3 {
		t.Fatalf("groups = %d", flat.Len())
	}
	// Groups are emitted in key order: 1, 2, 3.
	ids := storage.Int64s(flat.Cols[0])
	ns := storage.Int64s(flat.Cols[1])
	sums := storage.Int64s(flat.Cols[2])
	wantN := map[int64]int64{1: 2, 2: 1, 3: 2}
	for i, id := range ids {
		if ns[i] != wantN[id] {
			t.Fatalf("group %d count = %d", id, ns[i])
		}
		if sums[i] != id*wantN[id] {
			t.Fatalf("group %d int sum = %d", id, sums[i])
		}
	}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("group order = %v", ids)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	e := NewEmpty([]string{"v"}, []storage.Kind{storage.KindFloat64})
	agg, err := NewHashAggregate(e, nil, []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggStddev, Arg: expr.Col("v"), Name: "sd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat := out.Flatten()
	if flat.Len() != 1 {
		t.Fatal("global aggregate over empty input must emit one row")
	}
	if n := storage.Int64s(flat.Cols[0])[0]; n != 0 {
		t.Fatalf("count = %d", n)
	}
	// Grouped aggregate over empty input emits nothing.
	e2 := NewEmpty([]string{"g", "v"}, []storage.Kind{storage.KindInt64, storage.KindFloat64})
	agg2, _ := NewHashAggregate(e2, []int{0}, []AggColumn{{Func: AggCount, Name: "n"}})
	out2, _ := Collect(agg2, DrainOpts{})
	if out2.Rows() != 0 {
		t.Fatal("grouped aggregate over empty input must emit no rows")
	}
}

func TestAggregateValidation(t *testing.T) {
	rel, names, kinds := metaRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	if _, err := NewHashAggregate(s, nil, []AggColumn{{Func: AggSum, Name: "x"}}); err == nil {
		t.Fatal("SUM without argument accepted")
	}
	s2, _ := NewRelScan(rel, names, kinds, nil)
	if _, err := NewHashAggregate(s2, nil, []AggColumn{{Func: AggSum, Arg: expr.Col("F.station"), Name: "x"}}); err == nil {
		t.Fatal("SUM over string accepted")
	}
	s3, _ := NewRelScan(rel, names, kinds, nil)
	if _, err := NewHashAggregate(s3, []int{9}, nil); err == nil {
		t.Fatal("out-of-range group column accepted")
	}
}

func TestSortAndLimit(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	srt, err := NewSort(s, []SortKey{{Col: 1, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	lim := NewLimit(srt, 2)
	out, err := Collect(lim, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	flat := out.Flatten()
	if flat.Len() != 2 {
		t.Fatalf("rows = %d", flat.Len())
	}
	vals := storage.Float64s(flat.Cols[1])
	if vals[0] != 50 || vals[1] != 40 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestSortMultiKeyStability(t *testing.T) {
	b := storage.NewBatch(
		storage.NewStringColumn([]string{"b", "a", "b", "a"}),
		storage.NewInt64Column([]int64{1, 2, 0, 1}),
	)
	s, _ := NewRelScan(relOf(b), []string{"s", "i"}, []storage.Kind{storage.KindString, storage.KindInt64}, nil)
	srt, err := NewSort(s, []SortKey{{Col: 0}, {Col: 1, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Collect(srt, DrainOpts{})
	flat := out.Flatten()
	ss := flat.Cols[0].(*storage.StringColumn)
	is := storage.Int64s(flat.Cols[1])
	want := []struct {
		s string
		i int64
	}{{"a", 2}, {"a", 1}, {"b", 1}, {"b", 0}}
	for r, w := range want {
		if ss.Value(r) != w.s || is[r] != w.i {
			t.Fatalf("row %d = (%s,%d), want %+v", r, ss.Value(r), is[r], w)
		}
	}
}

func TestSortValidation(t *testing.T) {
	rel, names, kinds := dataRel()
	s, _ := NewRelScan(rel, names, kinds, nil)
	if _, err := NewSort(s, []SortKey{{Col: 5}}); err == nil {
		t.Fatal("out-of-range sort key accepted")
	}
}

// Property: hash join agrees with a nested-loop oracle on random data.
func TestQuickHashJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		nl, nr := rng.Intn(40), rng.Intn(40)
		lk := make([]int64, nl)
		rk := make([]int64, nr)
		for i := range lk {
			lk[i] = int64(rng.Intn(10))
		}
		for i := range rk {
			rk[i] = int64(rng.Intn(10))
		}
		names := []string{"k"}
		kinds := []storage.Kind{storage.KindInt64}
		ls, _ := NewRelScan(relOf(storage.NewBatch(storage.NewInt64Column(lk))), names, kinds, nil)
		rs, _ := NewRelScan(relOf(storage.NewBatch(storage.NewInt64Column(rk))), []string{"k2"}, kinds, nil)
		j, err := NewHashJoin(ls, rs, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, a := range lk {
			for _, b := range rk {
				if a == b {
					want++
				}
			}
		}
		if out.Rows() != want {
			t.Fatalf("trial %d: join rows = %d, want %d", trial, out.Rows(), want)
		}
	}
}

// Property: Welford stddev matches the two-pass oracle.
func TestQuickStddevOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 2
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 1000
		}
		s, _ := NewRelScan(relOf(storage.NewBatch(storage.NewFloat64Column(vals))),
			[]string{"v"}, []storage.Kind{storage.KindFloat64}, nil)
		agg, _ := NewHashAggregate(s, nil, []AggColumn{{Func: AggStddev, Arg: expr.Col("v"), Name: "sd"}})
		out, err := Collect(agg, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := storage.Float64s(out.Flatten().Cols[0])[0]
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(n)
		ss := 0.0
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		want := math.Sqrt(ss / float64(n-1))
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("trial %d: stddev %v, want %v", trial, got, want)
		}
	}
}
