package physical

// Differential tests: the selection-vector execution paths (fused
// filter kernels, zone-map batch skipping, specialized int64 join and
// group-by) must produce row-for-row identical results to the naive
// materializing paths on randomized inputs, including empty inputs,
// all-pass and all-fail predicates, and duplicate keys.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// diffRel builds a randomized relation of several batches over
// (id int64, ts time, val float64, station string).
func diffRel(rng *rand.Rand, batches, rowsPer int) (*storage.Relation, []string, []storage.Kind) {
	rel := storage.NewRelation()
	stations := []string{"FIAM", "ISK", "AQU", "CERA"}
	base := int64(0)
	for bi := 0; bi < batches; bi++ {
		n := rowsPer
		ids := make([]int64, n)
		ts := make([]int64, n)
		vals := make([]float64, n)
		sts := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = rng.Int63n(8)
			ts[i] = base + rng.Int63n(100)
			vals[i] = rng.NormFloat64() * 100
			sts[i] = stations[rng.Intn(len(stations))]
		}
		base += 100 // batches occupy disjoint time ranges, so zones differ
		rel.Append(storage.NewBatch(
			storage.NewInt64Column(ids),
			storage.NewTimeColumn(ts),
			storage.NewFloat64Column(vals),
			storage.NewStringColumn(sts),
		))
	}
	names := []string{"D.id", "D.ts", "D.val", "D.station"}
	kinds := []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindString}
	return rel, names, kinds
}

// naiveFilter is the materializing reference: bool mask + gather.
func naiveFilter(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr) *storage.Relation {
	t.Helper()
	p := expr.Clone(pred)
	if _, err := p.Bind(names, kinds); err != nil {
		t.Fatal(err)
	}
	out := storage.NewRelation()
	for _, b := range rel.Batches() {
		idx := expr.SelectRows(p, b)
		if len(idx) > 0 {
			out.Append(b.Gather(idx))
		}
	}
	return out
}

// sameRelation asserts two relations hold identical rows in order.
func sameRelation(t *testing.T, got, want *storage.Relation, label string) {
	t.Helper()
	if got.Rows() != want.Rows() {
		t.Fatalf("%s: %d rows, want %d", label, got.Rows(), want.Rows())
	}
	g, w := got.Flatten(), want.Flatten()
	if g.Width() != w.Width() {
		t.Fatalf("%s: width %d, want %d", label, g.Width(), w.Width())
	}
	for c := 0; c < w.Width(); c++ {
		for r := 0; r < w.Len(); r++ {
			gv, wv := storage.ValueAt(g.Cols[c], r), storage.ValueAt(w.Cols[c], r)
			if f, ok := gv.(float64); ok { // bitwise, so NaN equals NaN
				gv = math.Float64bits(f)
			}
			if f, ok := wv.(float64); ok {
				wv = math.Float64bits(f)
			}
			if gv != wv {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", label,
					r, c, storage.ValueAt(g.Cols[c], r), storage.ValueAt(w.Cols[c], r))
			}
		}
	}
}

func diffPreds(rng *rand.Rand) []expr.Expr {
	return []expr.Expr{
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(rng.Int63n(400))),
		expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(150)),
			expr.NewCmp(expr.LT, expr.Col("D.ts"), expr.Time(250))),
		expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.Col("D.station"), expr.Str("FIAM")),
			expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-50))),
		expr.NewOr(
			expr.NewCmp(expr.EQ, expr.Col("D.id"), expr.Int(3)),
			expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(-100))),
		expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)),    // all pass
		expr.NewCmp(expr.GT, expr.Col("D.ts"), expr.Time(1e9)), // all fail
	}
}

// TestDifferentialRelScan compares the fused RelScan path (selection
// vectors + zone skipping) against the naive mask-and-gather filter.
func TestDifferentialRelScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel, names, kinds := diffRel(rng, 5, 128)
	empty := storage.NewRelation()
	for pi, pred := range diffPreds(rng) {
		for _, r := range []*storage.Relation{rel, empty} {
			s, err := NewRelScan(r, names, kinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(s, DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, got, naiveFilter(t, r, names, kinds, pred), pred.String()+" (relscan)")
			_ = pi
		}
	}
}

// TestDifferentialFilterChain stacks Filters above a filtering scan so
// selections compose across operators without intermediate gathers.
func TestDifferentialFilterChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rel, names, kinds := diffRel(rng, 4, 200)
	p1 := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-80))
	p2 := expr.NewCmp(expr.LT, expr.Col("D.ts"), expr.Time(350))
	p3 := expr.NewCmp(expr.NE, expr.Col("D.station"), expr.Str("ISK"))

	s, err := NewRelScan(rel, names, kinds, p1)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NewFilter(s, p2)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFilter(f1, p3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(f2, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveFilter(t, rel, names, kinds, expr.NewAnd(expr.NewAnd(p1, p2), p3))
	sameRelation(t, got, want, "filter chain")
}

// scanFilterProject builds the chain every SELECT … FROM t WHERE …
// compiles to: a RelScan over rel narrowed to srcCols and carrying pred,
// an optional residual Filter, and a Project of outs. It returns the
// scan too, so callers can read its zone-skip count.
func scanFilterProject(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind,
	srcCols []int, pred, residual expr.Expr, outs []expr.Expr) (Operator, *RelScan) {
	t.Helper()
	nNames := make([]string, len(srcCols))
	nKinds := make([]storage.Kind, len(srcCols))
	for i, c := range srcCols {
		nNames[i], nKinds[i] = names[c], kinds[c]
	}
	s, err := NewMultiRelScanCols([]*storage.Relation{rel}, nNames, nKinds, pred, srcCols)
	if err != nil {
		t.Fatal(err)
	}
	var op Operator = s
	if residual != nil {
		if op, err = NewFilter(op, residual); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProject(op, make([]string, len(outs)), outs)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

// TestDifferentialFusedPipeline runs the scan → filter → project chain
// (the shape the deleted fused operator used to replace, whose name the
// test keeps) — a predicated, column-narrowed RelScan, a residual
// Filter, and a Project of references, duplicates and arithmetic —
// against the naive mask-and-gather filter followed by per-batch
// expression evaluation, bitwise.
func TestDifferentialFusedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel, names, kinds := diffRel(rng, 16, 96)
	// The scan reads (ts, val, id): station is pruned away, and the
	// mapping is not a prefix, so every batch must apply it.
	srcCols := []int{1, 2, 0}
	projections := [][]expr.Expr{
		{expr.Col("D.val"), expr.Col("D.id")},
		{expr.Col("D.ts"), expr.Col("D.val"), expr.Col("D.id")},
		{expr.Col("D.val"), expr.Col("D.val")},
		{expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(2)), expr.Col("D.id")},
		{expr.NewArith(expr.Sub, expr.Col("D.val"), expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(0.3)))},
		{expr.NewArith(expr.Add, expr.Col("D.id"), expr.Int(10))},
	}
	residuals := []expr.Expr{nil, expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(120))}
	chain := func(pred, residual expr.Expr, outs []expr.Expr) Operator {
		op, _ := scanFilterProject(t, rel, names, kinds, srcCols, pred, residual, outs)
		return op
	}
	for _, pred := range append(diffPreds(rng), nil) {
		if pred != nil && slices.Contains(expr.Columns(pred), "D.station") {
			continue
		}
		for ri, residual := range residuals {
			all := expr.Conjoin([]expr.Expr{pred, residual})
			kept := rel
			if all != nil {
				kept = naiveFilter(t, rel, names, kinds, all)
			}
			for oi, outs := range projections {
				want := naiveProject(t, kept, names, kinds, outs)
				label := fmt.Sprintf("pred %v residual %d projection %d", pred, ri, oi)
				got, err := Collect(chain(pred, residual, outs), DrainOpts{})
				if err != nil {
					t.Fatal(err)
				}
				sameRelation(t, got, want, label)
			}
		}
	}
}

// TestFusedPipelineNarrowed runs a computed projection over a scan
// narrowed to (ts, val), with a predicate on both columns: the scan
// reads source columns 1 and 2 through its
// mapping, and the Project binds against the narrowed schema.
func TestFusedPipelineNarrowed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel, names, kinds := diffRel(rng, 8, 80)
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(200)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)))
	outs := []expr.Expr{expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(3)), expr.Col("D.ts")}
	want := naiveProject(t, naiveFilter(t, rel, names, kinds, pred), names, kinds, outs)
	op, _ := scanFilterProject(t, rel, names, kinds, []int{1, 2}, pred, nil, outs)
	got, err := Collect(op, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, want, "narrowed")
}

// TestFusedPipelineZoneSkip asserts zone pruning still consults the
// source relation through a narrowed scan's column mapping under a
// Filter and a Project: a one-batch time window over disjoint per-batch
// ranges skips every other batch, and the rows match the reference.
func TestFusedPipelineZoneSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel, names, kinds := diffRel(rng, 16, 64)
	window := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(300)),
		expr.NewCmp(expr.LT, expr.Col("D.ts"), expr.Time(400)))
	residual := expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(120))
	outs := []expr.Expr{expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(2)), expr.Col("D.id")}
	op, s := scanFilterProject(t, rel, names, kinds, []int{1, 2, 0}, window, residual, outs)
	got, err := Collect(op, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	kept := naiveFilter(t, rel, names, kinds, expr.NewAnd(window, residual))
	sameRelation(t, got, naiveProject(t, kept, names, kinds, outs), "zone skip under project")
	if s.Skipped() < 15 {
		t.Fatalf("narrowed scan skipped %d of 16 batches over disjoint time ranges, want 15", s.Skipped())
	}
}

// naiveProject is the reference projection: every expression evaluated
// over each (contiguous) batch of rel.
func naiveProject(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind, outs []expr.Expr) *storage.Relation {
	t.Helper()
	bound := make([]expr.Expr, len(outs))
	for i, e := range outs {
		bound[i] = expr.Clone(e)
		if _, err := bound[i].Bind(names, kinds); err != nil {
			t.Fatal(err)
		}
	}
	out := storage.NewRelation()
	for _, b := range rel.Batches() {
		cols := make([]storage.Column, len(bound))
		for i, e := range bound {
			cols[i] = e.Eval(b)
		}
		out.Append(storage.NewBatch(cols...))
	}
	return out
}

// TestZoneMapSkipping asserts wholly-out-of-range batches are pruned
// without being touched, and that pruning does not change results.
func TestZoneMapSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel, names, kinds := diffRel(rng, 6, 64) // ts ranges [0,100), [100,200), ...
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(210)),
		expr.NewCmp(expr.LE, expr.Col("D.ts"), expr.Time(280)))
	s, err := NewRelScan(rel, names, kinds, pred)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(s, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, naiveFilter(t, rel, names, kinds, pred), "zone skip")
	if s.Skipped() < 4 {
		t.Fatalf("zone maps skipped %d batches, want >= 4 of 6", s.Skipped())
	}
	if got.Rows() == 0 {
		t.Fatal("zone-skip test selected no rows; widen the range")
	}
}

// joinInputs builds a small dimension (unique and duplicate keys, some
// dangling) and a large fact side.
func joinInputs(rng *rand.Rand) (dim, fact *storage.Relation) {
	dim = storage.NewRelation()
	dimIDs := make([]int64, 12)
	dimTags := make([]string, 12)
	for i := range dimIDs {
		dimIDs[i] = int64(i % 8) // duplicate build keys
		dimTags[i] = []string{"a", "b", "c"}[i%3]
	}
	dim.Append(storage.NewBatch(storage.NewInt64Column(dimIDs), storage.NewStringColumn(dimTags)))

	fact = storage.NewRelation()
	for bi := 0; bi < 3; bi++ {
		n := 150
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			ids[i] = rng.Int63n(12) // some keys dangle past the dim's 0..7
			vals[i] = rng.NormFloat64()
		}
		fact.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	return dim, fact
}

func runJoin(t *testing.T, dim, fact *storage.Relation, forceComposite bool, probePred expr.Expr) *storage.Relation {
	t.Helper()
	dnames, dkinds := []string{"F.id", "F.tag"}, []storage.Kind{storage.KindInt64, storage.KindString}
	fnames, fkinds := []string{"D.id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
	ds, err := NewRelScan(dim, dnames, dkinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewRelScan(fact, fnames, fkinds, probePred)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if forceComposite {
		j.fastKey = false
	}
	out, err := Collect(j, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDifferentialJoinFastKey compares the specialized int64 join path
// (including probing through a deferred selection) against the
// composite index.Key path.
func TestDifferentialJoinFastKey(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dim, fact := joinInputs(rng)
	for _, pred := range []expr.Expr{
		nil,
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e9)), // all fail
	} {
		fast := runJoin(t, dim, fact, false, pred)
		slow := runJoin(t, dim, fact, true, pred)
		sameRelation(t, fast, slow, "join fast-vs-composite")
	}
	// Empty build side drains to an empty result on both paths.
	emptyDim := storage.NewRelation()
	fast := runJoin(t, emptyDim, fact, false, nil)
	slow := runJoin(t, emptyDim, fact, true, nil)
	if fast.Rows() != 0 || slow.Rows() != 0 {
		t.Fatalf("empty build: fast=%d slow=%d rows", fast.Rows(), slow.Rows())
	}
}

func runAgg(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind, groupCol string, forceComposite bool, pred expr.Expr) *storage.Relation {
	t.Helper()
	s, err := NewRelScan(rel, names, kinds, pred)
	if err != nil {
		t.Fatal(err)
	}
	gi := -1
	for i, n := range names {
		if n == groupCol {
			gi = i
		}
	}
	groupCols := []int{gi}
	if groupCol == "" { // global aggregate
		groupCols = nil
	}
	agg, err := NewHashAggregate(s, groupCols, []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggSum, Arg: expr.Col("D.val"), Name: "sum"},
		{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
		{Func: AggMin, Arg: expr.Col("D.val"), Name: "mn"},
		{Func: AggMax, Arg: expr.Col("D.val"), Name: "mx"},
		{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if forceComposite {
		agg.fastKey = false
	}
	out, err := Collect(agg, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDifferentialAggregateFastKey compares the specialized int64
// group-by (including folding through a deferred selection) against the
// composite index.Key path, over int64 and time group keys.
func TestDifferentialAggregateFastKey(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rel, names, kinds := diffRel(rng, 4, 128)
	// "" is the global aggregate: its one group is keyed the same way
	// with the hook set.
	for _, groupCol := range []string{"D.id", "D.ts", ""} {
		for _, pred := range []expr.Expr{
			nil,
			expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
			expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e9)), // all fail
		} {
			fast := runAgg(t, rel, names, kinds, groupCol, false, pred)
			slow := runAgg(t, rel, names, kinds, groupCol, true, pred)
			sameRelation(t, fast, slow, "aggregate fast-vs-composite "+groupCol)
		}
	}
	// Empty input, grouped: no groups on either path.
	empty := storage.NewRelation()
	fast := runAgg(t, empty, names, kinds, "D.id", false, nil)
	slow := runAgg(t, empty, names, kinds, "D.id", true, nil)
	if fast.Rows() != 0 || slow.Rows() != 0 {
		t.Fatalf("empty input: fast=%d slow=%d groups", fast.Rows(), slow.Rows())
	}
}
