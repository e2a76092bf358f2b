package physical

import (
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// fusedOutputs are projection shapes over diffRel's fixed-width columns
// (the fused pipeline never carries strings): bare references in
// shuffled order, a duplicated reference, and computed arithmetic.
func fusedOutputs() [][]expr.Expr {
	return [][]expr.Expr{
		{expr.Col("D.val"), expr.Col("D.id")},
		{expr.Col("D.ts"), expr.Col("D.val"), expr.Col("D.id")},
		{expr.Col("D.val"), expr.Col("D.val")},
		{expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(2)), expr.Col("D.id")},
		{expr.NewArith(expr.Add, expr.Col("D.id"), expr.Int(10))},
	}
}

// unfusedChain is the reference pipeline: Project over Filter over a
// predicate-free RelScan (the pre-fusion operator composition).
func unfusedChain(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind,
	pred expr.Expr, outs []expr.Expr) *storage.Relation {
	t.Helper()
	var op Operator
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	op = s
	if pred != nil {
		f, err := NewFilter(op, pred)
		if err != nil {
			t.Fatal(err)
		}
		op = f
	}
	outNames := make([]string, len(outs))
	for i := range outs {
		outNames[i] = "c"
	}
	p, err := NewProject(op, outNames, outs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(p, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runFused(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind,
	pred expr.Expr, outs []expr.Expr, dop int) *storage.Relation {
	t.Helper()
	outNames := make([]string, len(outs))
	for i := range outs {
		outNames[i] = "c"
	}
	fp, err := NewFusedPipeline([]*storage.Relation{rel}, names, kinds, pred, nil, outNames, outs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(fp, DrainOpts{DOP: dop, Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDifferentialFusedPipeline proves the fused scan→filter→project
// operator row-for-row identical to the unfused chain, across
// predicates (selective, all-pass, all-fail, zone-skipping ranges),
// projection shapes (references, duplicates, arithmetic), serial and
// morsel-parallel drains, and with pooling disabled.
func TestDifferentialFusedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel, names, kinds := diffRel(rng, 12, 96)
	preds := append(diffPreds(rng), nil) // nil = unpredicated passthrough
	for pi, pred := range preds {
		for oi, outs := range fusedOutputs() {
			want := unfusedChain(t, rel, names, kinds, pred, outs)
			for _, dop := range []int{1, 4} {
				got := runFused(t, rel, names, kinds, pred, outs, dop)
				label := labelOf(pi, oi, dop, true)
				sameRelation(t, got, want, label)
				got.Release()
			}
			storage.SetPooling(false)
			got := runFused(t, rel, names, kinds, pred, outs, 1)
			storage.SetPooling(true)
			sameRelation(t, got, want, labelOf(pi, oi, 1, false))
		}
	}
}

func labelOf(pi, oi, dop int, pooled bool) string {
	l := "fused pred " + string(rune('0'+pi)) + " outs " + string(rune('0'+oi))
	if dop > 1 {
		l += " parallel"
	}
	if !pooled {
		l += " unpooled"
	}
	return l
}

// TestFusedPipelineZoneSkip asserts the fused pipeline prunes the same
// batches the bare scan prunes: disjoint per-batch time ranges and a
// one-batch window predicate.
func TestFusedPipelineZoneSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel, names, kinds := diffRel(rng, 10, 64)
	rel.Zone(0, 0) // warm the cache
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(300)),
		expr.NewCmp(expr.LT, expr.Col("D.ts"), expr.Time(400)))
	outs := []expr.Expr{expr.Col("D.ts"), expr.Col("D.val")}
	fp, err := NewFusedPipeline([]*storage.Relation{rel}, names, kinds, pred, nil,
		[]string{"ts", "val"}, outs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(fp, DrainOpts{Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Release()
	want := unfusedChain(t, rel, names, kinds, pred, outs)
	sameRelation(t, out, want, "zone-skip fused")
	if fp.Skipped() == 0 {
		t.Fatalf("fused pipeline skipped no batches over disjoint time ranges")
	}
}

// TestLimitDisownsPooledTruncation pins Limit's ownership behaviour:
// truncating a pooled batch takes it out of pool accounting (the
// sliced views share its storage), so the outstanding gauge returns to
// baseline once the result is dropped.
func TestLimitDisownsPooledTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel, names, kinds := diffRel(rng, 8, 512)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	outs := []expr.Expr{expr.Col("D.val"), expr.Col("D.ts")}
	fp, err := NewFusedPipeline([]*storage.Relation{rel}, names, kinds, pred, nil,
		[]string{"v", "ts"}, outs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(NewLimit(fp, 5), DrainOpts{Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5 {
		t.Fatalf("limit emitted %d rows, want 5", out.Rows())
	}
	out.Release()
	storage.RequireNoLeaks(t)
}

// TestFusedPipelineNarrowed exercises the source-column mapping of a
// pruned scan: the fused pipeline reads a narrowed schema while zone
// pruning still consults the source relation through the mapping.
func TestFusedPipelineNarrowed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel, names, kinds := diffRel(rng, 8, 80)
	// Narrow to (ts, val): source columns 1 and 2.
	srcCols := []int{1, 2}
	nNames := []string{names[1], names[2]}
	nKinds := []storage.Kind{kinds[1], kinds[2]}
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(200)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)))
	outs := []expr.Expr{expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(3)), expr.Col("D.ts")}

	fp, err := NewFusedPipeline([]*storage.Relation{rel}, nNames, nKinds, pred, srcCols,
		[]string{"v", "ts"}, outs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(fp, DrainOpts{Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()

	// Reference: narrowed scan (shared-column mapping) then filter then
	// project.
	s, err := NewMultiRelScanCols([]*storage.Relation{rel}, nNames, nKinds, nil, srcCols)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(s, pred)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []string{"v", "ts"}, outs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(p, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, want, "narrowed fused")
}
