package expr

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sommelier/internal/storage"
)

// randBatch builds a randomized batch over a fixed five-column schema:
// an int64 id, a timestamp, a float measurement, a low-cardinality
// station string and a bool flag.
func randBatch(rng *rand.Rand, n int) (*storage.Batch, []string, []storage.Kind) {
	ids := make([]int64, n)
	ts := make([]int64, n)
	vals := make([]float64, n)
	sts := make([]string, n)
	flags := make([]bool, n)
	stations := []string{"FIAM", "ISK", "AQU", "CERA"}
	for i := 0; i < n; i++ {
		ids[i] = rng.Int63n(16)
		ts[i] = time.Unix(0, 0).UnixNano() + rng.Int63n(1000)
		vals[i] = rng.NormFloat64() * 10
		sts[i] = stations[rng.Intn(len(stations))]
		flags[i] = rng.Intn(2) == 0
	}
	b := storage.NewBatch(
		storage.NewInt64Column(ids),
		storage.NewTimeColumn(ts),
		storage.NewFloat64Column(vals),
		storage.NewStringColumn(sts),
		storage.NewBoolColumn(flags),
	)
	names := []string{"D.id", "D.ts", "D.val", "D.station", "D.flag"}
	kinds := []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindString, storage.KindBool}
	return b, names, kinds
}

// randPred builds a random predicate tree of the given depth.
func randPred(rng *rand.Rand, depth int) Expr {
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	if depth > 0 {
		switch rng.Intn(4) {
		case 0:
			return NewAnd(randPred(rng, depth-1), randPred(rng, depth-1))
		case 1:
			return NewOr(randPred(rng, depth-1), randPred(rng, depth-1))
		case 2:
			return NewNot(randPred(rng, depth-1))
		}
	}
	switch rng.Intn(8) {
	case 0:
		return NewCmp(ops[rng.Intn(len(ops))], Col("D.id"), Int(rng.Int63n(16)))
	case 1:
		return NewCmp(ops[rng.Intn(len(ops))], Col("D.ts"), Time(rng.Int63n(1000)))
	case 2:
		return NewCmp(ops[rng.Intn(len(ops))], Col("D.val"), Float(rng.NormFloat64()*10))
	case 3:
		// Constant on the left exercises the flipped kernels.
		return NewCmp(ops[rng.Intn(len(ops))], Float(rng.NormFloat64()*10), Col("D.val"))
	case 4:
		ss := []string{"FIAM", "ISK", "AQU", "CERA", "NOPE"}
		return NewCmp(ops[rng.Intn(len(ops))], Col("D.station"), Str(ss[rng.Intn(len(ss))]))
	case 5:
		// Column-vs-column and promoted int-vs-float comparisons.
		if rng.Intn(2) == 0 {
			return NewCmp(ops[rng.Intn(len(ops))], Col("D.id"), Col("D.ts"))
		}
		return NewCmp(ops[rng.Intn(len(ops))], Col("D.id"), Col("D.val"))
	case 6:
		return NewCmp([]CmpOp{EQ, NE}[rng.Intn(2)], Col("D.flag"), Bool(rng.Intn(2) == 0))
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

// maskSel is the naive materializing reference: evaluate the predicate
// as a bool column and filter the candidate rows by it.
func maskSel(pred Expr, b *storage.Batch, sel []int32) []int32 {
	mask := storage.Bools(pred.Eval(b))
	var out []int32
	if sel == nil {
		for i, v := range mask {
			if v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if mask[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestEvalSelDifferential asserts the fused selection-vector path
// produces row-for-row identical selections to the materializing
// bool-column path on randomized batches and predicates, with and
// without an input selection, including empty batches. One SelBuf
// serves every trial, so each evaluation reuses buffers an earlier one
// left behind, at other sizes and nesting depths.
func TestEvalSelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb SelBuf
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 7, 256}[rng.Intn(4)]
		b, names, kinds := randBatch(rng, n)
		pred := randPred(rng, rng.Intn(4))
		if _, err := pred.Bind(names, kinds); err != nil {
			t.Fatalf("bind %s: %v", pred, err)
		}
		// Fresh clones so the fused and mask paths cannot share memos.
		fused := Clone(pred)
		if _, err := fused.Bind(names, kinds); err != nil {
			t.Fatal(err)
		}

		var selIn []int32
		if rng.Intn(2) == 0 && n > 0 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					selIn = append(selIn, int32(i))
				}
			}
		}
		want := maskSel(pred, b, selIn)
		got := sb.EvalSel(fused, b, selIn)
		if fmt.Sprint(want) != fmt.Sprint(got) || got == nil {
			t.Fatalf("trial %d pred %s selIn=%v:\n got %v\nwant %v", trial, pred, selIn, got, want)
		}
	}
}

// TestEvalSelEdges pins the degenerate shapes: all-pass, all-fail and
// constant predicates.
func TestEvalSelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b, names, kinds := randBatch(rng, 100)
	var sb SelBuf
	for _, tc := range []struct {
		pred Expr
		want int
	}{
		{NewCmp(GE, Col("D.id"), Int(0)), 100},     // all pass
		{NewCmp(LT, Col("D.id"), Int(0)), 0},       // all fail
		{Bool(true), 100},                          // constant true
		{Bool(false), 0},                           // constant false
		{NewCmp(EQ, Col("D.station"), Str("")), 0}, // absent dictionary entry
	} {
		p := Clone(tc.pred)
		if _, err := p.Bind(names, kinds); err != nil {
			t.Fatalf("bind %s: %v", tc.pred, err)
		}
		got := sb.EvalSel(p, b, nil)
		if len(got) != tc.want || got == nil {
			t.Fatalf("%s: got %d rows, want %d", tc.pred, len(got), tc.want)
		}
	}
}

// TestConstEvalMemo asserts Const.Eval reuses the constant column
// across batches of the same length.
func TestConstEvalMemo(t *testing.T) {
	c := Int(42)
	b := storage.NewBatch(storage.NewInt64Column(make([]int64, 64)))
	first := c.Eval(b)
	second := c.Eval(b)
	if first != second {
		t.Fatal("Const.Eval did not memoize the constant column")
	}
	small := storage.NewBatch(storage.NewInt64Column(make([]int64, 8)))
	third := c.Eval(small)
	if third.Len() != 8 {
		t.Fatalf("memoized column leaked across lengths: len %d", third.Len())
	}
}
