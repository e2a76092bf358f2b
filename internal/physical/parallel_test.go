package physical

// Differential tests for morsel-driven parallel execution: at every
// degree of parallelism, join probes and grouped aggregation must
// produce exactly the serial result — the same rows in the same order
// (Drain delivers morsel ranges in order, see drain_test.go for the
// scan chains; aggregates partition at a DOP-independent grain and merge
// partials in range order, so even the floating-point aggregates are
// bitwise identical). Against a whole-input reference fold, float
// aggregates are compared with a tolerance (merge rounding differs).

import (
	"math"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

var testDOPs = []int{2, 3, 8}

// bigRel builds a relation with enough batches for real splits.
func bigRel(rng *rand.Rand, batches int) (*storage.Relation, []string, []storage.Kind) {
	return diffRel(rng, batches, 512)
}

// sameRelationTol is sameRelation with a relative tolerance on float64
// cells, for comparisons across different accumulation structures.
func sameRelationTol(t *testing.T, got, want *storage.Relation, tol float64, label string) {
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
			if gf, ok := gv.(float64); ok {
				wf := wv.(float64)
				if math.IsNaN(gf) && math.IsNaN(wf) {
					continue
				}
				if diff := math.Abs(gf - wf); diff > tol*math.Max(1, math.Abs(wf)) {
					t.Fatalf("%s: cell (%d,%d) = %v, want %v (Δ%g)", label, r, c, gf, wf, diff)
				}
				continue
			}
			if gv != wv {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", label, r, c, gv, wv)
			}
		}
	}
}

// TestParallelJoin splits the probe side across workers — fast int64
// path and forced composite path — and requires the serial row order.
func TestParallelJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dim, fact := joinInputs(rng)
	// Widen the fact side so splits have several ranges to claim.
	for bi := 0; bi < 12; bi++ {
		n := 256
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			ids[i] = rng.Int63n(12)
			vals[i] = rng.NormFloat64()
		}
		fact.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	dnames, dkinds := []string{"F.id", "F.tag"}, []storage.Kind{storage.KindInt64, storage.KindString}
	fnames, fkinds := []string{"D.id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
	for _, forceComposite := range []bool{false, true} {
		for _, pred := range []expr.Expr{nil, expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))} {
			build := func(dop int) *HashJoin {
				ds, err := NewRelScan(dim, dnames, dkinds, nil)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := NewRelScan(fact, fnames, fkinds, pred)
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
				j.SetDrain(DrainOpts{DOP: dop})
				return j
			}
			want, err := Collect(build(1), DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range testDOPs {
				got, err := Collect(build(dop), DrainOpts{DOP: dop})
				if err != nil {
					t.Fatal(err)
				}
				sameRelation(t, got, want, "parallel join")
			}
		}
	}
}

// TestParallelLargeBuild probes a 16k-row build side with duplicate
// keys (parallel build-side drain, multi-match gather) at every DOP.
func TestParallelLargeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dim := storage.NewRelation()
	for bi := 0; bi < 4; bi++ {
		n := 1 << 12
		ids := make([]int64, n)
		tags := make([]float64, n)
		for i := range ids {
			ids[i] = rng.Int63n(1 << 14)
			tags[i] = float64(i)
		}
		dim.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(tags)))
	}
	fact := storage.NewRelation()
	for bi := 0; bi < 8; bi++ {
		n := 512
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = rng.Int63n(1 << 14)
		}
		fact.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	}
	dnames, dkinds := []string{"F.id", "F.x"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
	fnames, fkinds := []string{"D.id"}, []storage.Kind{storage.KindInt64}
	build := func(dop int) *HashJoin {
		ds, err := NewRelScan(dim, dnames, dkinds, nil)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := NewRelScan(fact, fnames, fkinds, nil)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		j.SetDrain(DrainOpts{DOP: dop})
		return j
	}
	want, err := Collect(build(1), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range testDOPs {
		got, err := Collect(build(dop), DrainOpts{DOP: dop})
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, got, want, "large build")
	}
}

// TestParallelAggregate requires grouped aggregation to be bitwise
// identical at every DOP (fast and composite paths, plain and computed
// arguments), and within tolerance of a whole-input reference fold.
func TestParallelAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rel, names, kinds := bigRel(rng, 24)
	for _, groupCol := range []string{"D.id", "D.station"} {
		forceComposite := groupCol == "D.station"
		for _, exprArg := range []bool{false, true} {
			gi := -1
			for i, n := range names {
				if n == groupCol {
					gi = i
				}
			}
			arg := expr.Expr(expr.Col("D.val"))
			if exprArg {
				arg = expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(0.5))
			}
			aggs := []AggColumn{
				{Func: AggCount, Name: "n"},
				{Func: AggSum, Arg: arg, Name: "sum"},
				{Func: AggAvg, Arg: arg, Name: "avg"},
				{Func: AggMin, Arg: arg, Name: "mn"},
				{Func: AggMax, Arg: arg, Name: "mx"},
				{Func: AggStddev, Arg: arg, Name: "sd"},
			}
			build := func(dop int, in Operator) *HashAggregate {
				agg, err := NewHashAggregate(in, []int{gi}, aggs)
				if err != nil {
					t.Fatal(err)
				}
				if forceComposite {
					agg.fastKey = false
				}
				agg.SetDrain(DrainOpts{DOP: dop})
				return agg
			}
			scan := func(pred expr.Expr) Operator {
				s, err := NewRelScan(rel, names, kinds, pred)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-50))
			want, err := Collect(build(1, scan(pred)), DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range testDOPs {
				got, err := Collect(build(dop, scan(pred)), DrainOpts{})
				if err != nil {
					t.Fatal(err)
				}
				// Same ranges, same merge order: bitwise identical.
				sameRelation(t, got, want, "parallel aggregate")
			}
			// A non-splittable input folds the whole stream into one
			// accumulator; its float results may differ in rounding.
			ref, err := Collect(build(1, unsplittable{scan(pred)}), DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sameRelationTol(t, want, ref, 1e-9, "aggregate vs whole fold")
		}
	}
}

// unsplittable hides its operator's Split: a non-splittable input.
type unsplittable struct{ Operator }

// TestParallelAggregateGlobal covers the global (no group) aggregate,
// including over an all-filtered-out input.
func TestParallelAggregateGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rel, names, kinds := bigRel(rng, 16)
	for _, pred := range []expr.Expr{
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e12)), // all fail
	} {
		build := func(dop int) *HashAggregate {
			s, err := NewRelScan(rel, names, kinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := NewHashAggregate(s, nil, []AggColumn{
				{Func: AggCount, Name: "n"},
				{Func: AggSum, Arg: expr.Col("D.val"), Name: "sum"},
				{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
			})
			if err != nil {
				t.Fatal(err)
			}
			agg.SetDrain(DrainOpts{DOP: dop})
			return agg
		}
		want, err := Collect(build(1), DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if want.Rows() != 1 {
			t.Fatalf("global aggregate emitted %d rows", want.Rows())
		}
		for _, dop := range testDOPs {
			got, err := Collect(build(dop), DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			// tol 0: exact, but NaN-aware (AVG over zero rows is NaN).
			sameRelationTol(t, got, want, 0, "parallel global aggregate")
		}
	}
}

// TestParallelSort checks Sort draining its input through the parallel
// pipeline.
func TestParallelSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	rel, names, kinds := bigRel(rng, 12)
	build := func(dop int) *Sort {
		s, err := NewRelScan(rel, names, kinds, expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)))
		if err != nil {
			t.Fatal(err)
		}
		srt, err := NewSort(s, []SortKey{{Col: 1}, {Col: 2, Desc: true}})
		if err != nil {
			t.Fatal(err)
		}
		srt.SetDrain(DrainOpts{DOP: dop})
		return srt
	}
	want, err := Collect(build(1), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range testDOPs {
		got, err := Collect(build(dop), DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, got, want, "parallel sort")
	}
}

// TestSplitTransfersWork asserts the Split contract: after a successful
// Split the parent yields nothing, and the children together yield
// exactly the parent's stream.
func TestSplitTransfersWork(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	rel, names, kinds := bigRel(rng, 10)
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := s.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("split produced %d parts", len(parts))
	}
	if b, err := s.Next(); err != nil || b != nil {
		t.Fatalf("parent still streams after Split: %v %v", b, err)
	}
	got := storage.NewRelation()
	for _, p := range parts {
		rel, err := Collect(p, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range rel.Batches() {
			got.Append(b)
		}
	}
	want, err := Collect(mustScan(t, rel, names, kinds), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, want, "split transfer")
}

func mustScan(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind) Operator {
	t.Helper()
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
