package physical

import (
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// Alloc-budget regression tests: testing.AllocsPerRun ceilings on the
// hot filter/join/group-by paths, asserted in CI so the pooling
// discipline cannot silently rot. The ceilings carry ~60% headroom over
// the measured steady state (16 / 26 / 50 allocs per op at the time of
// writing: the join lays its output into the pooled batch header, the
// aggregate renders through typed appends instead of boxing a value per
// group) and sit far below the pre-pooling numbers (99 / 308 / 812); a
// regression that reintroduces per-batch or per-group allocation blows
// through them immediately.

const (
	filterAllocBudget  = 35
	joinAllocBudget    = 42
	groupByAllocBudget = 80
)

func allocRel(rows int) (*storage.Relation, []string, []storage.Kind) {
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := min(storage.BatchSize, rows-lo)
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = int64((lo + i) % 64)
			vals[i] = float64(i%200) - 100
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	return rel, []string{"D.file_id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
}

func assertBudget(t *testing.T, name string, budget float64, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts differ under -race")
	}
	if storage.PoolDebug {
		t.Skip("stack capture per pool checkout skews alloc counts under -tags pooldebug")
	}
	run() // warm the pools outside the measurement
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Errorf("%s: %.0f allocs/op, budget %.0f — pooling regressed", name, got, budget)
	}
}

func TestFilterAllocBudget(t *testing.T) {
	rel, names, kinds := allocRel(1 << 15)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	assertBudget(t, "filter scan", filterAllocBudget, func() {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(s, DrainOpts{Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
}

func TestJoinAllocBudget(t *testing.T) {
	dim := storage.NewRelation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	dim.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	fact, fnames, fkinds := allocRel(1 << 15)
	assertBudget(t, "join probe", joinAllocBudget, func() {
		ds, _ := NewRelScan(dim, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
		fs, _ := NewRelScan(fact, fnames, fkinds, nil)
		j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j, DrainOpts{Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
}

func TestGroupByAllocBudget(t *testing.T) {
	rel, names, kinds := allocRel(1 << 15)
	assertBudget(t, "grouped aggregate", groupByAllocBudget, func() {
		s, _ := NewRelScan(rel, names, kinds, nil)
		agg, err := NewHashAggregate(s, []int{0}, []AggColumn{
			{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
			{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(agg, DrainOpts{Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
}
