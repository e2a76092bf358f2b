package physical

import (
	"math/rand"
	"testing"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/index"
	"sommelier/internal/storage"
)

// TestProfiledHidesNothing: for every operator type that implements an
// optional interface — BatchHinter, constHinter — the
// profiled operator implements it too and answers as the operator
// does, so profiling every operator changes no execution decision (the
// join's constant-key probe reads constHinter through the wrapper).
func TestProfiledHidesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Column D.id is constant within each batch, so the scan's zone maps
	// report it constant after every Next.
	rel := storage.NewRelation()
	for bi := 0; bi < 16; bi++ {
		ids, vals := make([]int64, 256), make([]float64, 256)
		for i := range ids {
			ids[i], vals[i] = int64(bi), rng.Float64()
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	names, kinds := []string{"D.id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
	meta, mnames, mkinds := metaRel()
	flat := meta.Flatten()
	ix, err := index.BuildHash(flat, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	must := func(op Operator, err error) Operator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	scan := func() Operator { return must(NewMultiRelScan([]*storage.Relation{rel}, names, kinds, nil)) }
	mscan := func() Operator { return must(NewRelScan(meta, mnames, mkinds, nil)) }
	positive := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-1))
	ops := map[string]func() Operator{
		"RelScan":   scan,
		"Filter":    func() Operator { return must(NewFilter(scan(), positive)) },
		"Project":   func() Operator { return must(NewProject(scan(), []string{"v"}, []expr.Expr{expr.Col("D.val")})) },
		"Empty":     func() Operator { return NewEmpty(names, kinds) },
		"IndexScan": func() Operator { return NewIndexScan(ix, flat, mnames, mkinds, index.Key{S0: "ISK"}) },
		"HashJoin":  func() Operator { return must(NewHashJoin(mscan(), scan(), []int{0}, []int{0})) },
		"CrossJoin": func() Operator { return NewCrossJoin(mscan(), scan()) },
		"HashAggregate": func() Operator {
			return must(NewHashAggregate(scan(), []int{0}, []AggColumn{{Func: AggSum, Arg: expr.Col("D.val"), Name: "s"}}))
		},
		"Sort":  func() Operator { return must(NewSort(scan(), []SortKey{{Col: 1}})) },
		"TopK":  func() Operator { return must(NewTopK(scan(), []SortKey{{Col: 1}}, 5)) },
		"Limit": func() Operator { return NewLimit(scan(), 10) },
	}
	constants := 0
	for name, mk := range ops {
		op, w := mk(), Operator(NewProfiled(mk(), time.Now()))
		if _, ok := op.(BatchHinter); ok {
			if _, ok := w.(BatchHinter); !ok || batchHint(w) != batchHint(op) {
				t.Errorf("%s: profiled batch hint %d, want %d", name, batchHint(w), batchHint(op))
			}
		}
		if ch, ok := op.(constHinter); ok {
			wch, ok := w.(constHinter)
			if !ok {
				t.Fatalf("%s: profiled operator hides constHinter", name)
			}
			for {
				b, err := op.Next()
				wb, werr := w.Next()
				if err != nil || werr != nil {
					t.Fatal(err, werr)
				}
				if b == nil || wb == nil {
					break
				}
				got, want := wch.lastConst([]int{0}), ch.lastConst([]int{0})
				if got != want {
					t.Fatalf("%s: profiled lastConst %t, want %t", name, got, want)
				}
				if want {
					constants++
				}
			}
		}
	}
	if constants == 0 {
		t.Fatal("no scan batch reported a constant key: the constHinter check is vacuous")
	}
}

// TestProfiledTimesBreakersOnly: a profiled scan under a sort counts
// every row it emits and reads no clock; the sort above it, a breaker,
// records the time to its first batch.
func TestProfiledTimesBreakersOnly(t *testing.T) {
	rel, names, kinds := diffRel(rand.New(rand.NewSource(33)), 64, 512)
	scan, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfiled(scan, time.Now())
	sort, err := NewSort(p, []SortKey{{Col: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ps := NewProfiled(sort, time.Now())
	out, err := Collect(ps, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st, sst := p.Stats(), ps.Stats()
	if st.Rows != int64(rel.Rows()) || out.Rows() != rel.Rows() || st.Batches < 1 || st.Timed || st.Time != 0 {
		t.Fatalf("scan stats %+v over %d rows", st, rel.Rows())
	}
	if sst.Rows != int64(rel.Rows()) || !sst.Timed || sst.Time <= 0 {
		t.Fatalf("sort stats %+v", sst)
	}
}
