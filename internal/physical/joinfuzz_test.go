package physical

import (
	"fmt"
	"slices"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

var (
	probeNames = []string{"P.k", "P.v", "P.keep"}
	probeKinds = []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindInt64}
	buildNames = []string{"B.k", "B.t", "B.f", "B.b", "B.s"}
	buildKinds = []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindBool, storage.KindString}
)

// probeRel decodes fuzz bytes into probe rows (k, v, keep), batch rows
// per batch. Each control byte starts a run of one key: its length (one
// row up to a few batches), the key — 0..3 have build rows, 4 and 5 do
// not, so unmatched runs fall between matched ones — and how the run's
// rows alternate in and out of the selection; a value byte per row.
func probeRel(data []byte, batch int) *storage.Relation {
	var k, keep []int64
	var v []float64
	for len(data) > 0 && len(k) < 3000 {
		c := data[0]
		data = data[1:]
		n := 1 + int(c&7)
		if c&8 != 0 {
			n *= 1 + batch/2
		}
		key := int64(c>>4) % 6
		for i := 0; i < n; i++ {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			k, keep = append(k, key), append(keep, int64(b>>7|c>>7&1)&1)
			v = append(v, float64(int8(b))/3)
		}
	}
	rel := storage.NewRelation()
	for lo := 0; lo < len(k); lo += batch {
		hi := min(lo+batch, len(k))
		rel.Append(storage.NewBatch(storage.NewInt64Column(k[lo:hi]), storage.NewFloat64Column(v[lo:hi]),
			storage.NewInt64Column(keep[lo:hi])))
	}
	return rel
}

// buildRel is the build side: one row per key 0..3, and with dup a
// second row for keys 1 and 3. Its time, float, bool and string columns
// are functions of the row, so duplicate keys carry different values.
func buildRel(dup bool) *storage.Relation {
	keys := []int64{0, 1, 2, 3}
	if dup {
		keys = append(keys, 3, 1)
	}
	n := len(keys)
	ts, fs, bs, ss := make([]int64, n), make([]float64, n), make([]bool, n), make([]string, n)
	for r := range keys {
		ts[r], fs[r] = 1_000*int64(r), float64(r)/4-0.5
		bs[r], ss[r] = r%2 == 0, runStations[r%len(runStations)]
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewInt64Column(keys), storage.NewTimeColumn(ts),
		storage.NewFloat64Column(fs), storage.NewBoolColumn(bs), storage.NewStringColumn(ss)))
	return rel
}

// nestedLoopJoin is the reference join: for every probe row in order,
// every build row with an equal key in build order, projected to out
// (positions in build++probe).
func nestedLoopJoin(build, probe [][]any, out []int) [][]any {
	var res [][]any
	for _, p := range probe {
		for _, b := range build {
			if b[0] != p[0] {
				continue
			}
			all := append(slices.Clone(b), p...)
			row := make([]any, len(out))
			for i, o := range out {
				row[i] = all[o]
			}
			res = append(res, row)
		}
	}
	return res
}

// FuzzJoinProbe drives the hash join's probe — key runs resolved over
// plain, run-shaped and zone-constant key columns, with and without a
// deferred selection, against unique and duplicate build keys — and
// compares its materialized output, every build column kind included,
// row for row with a nested-loop join. It then groups the join by an
// emitted build column and compares the aggregate bit for bit with the
// per-row reference fold.
func FuzzJoinProbe(f *testing.F) {
	f.Add([]byte{0x13, 1, 2, 3, 0x4a, 9, 0x23, 0x80, 0x81, 0x85, 0x07, 0x31}, uint8(0), uint8(8))
	f.Add([]byte{0x0f, 0xff, 0x41, 0x12, 0x5a, 0x33, 0x87, 0x21}, uint8(0x1f), uint8(3))
	f.Add([]byte{0x48, 0x18, 0x58, 0x28, 0x38, 0x08}, uint8(0x05), uint8(1))
	f.Add([]byte("join probe runs: \x00\x10\x20\x30\x40\x50\x88\x98"), uint8(0x0a), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, shape, batch uint8) {
		defer storage.SetPooling(true)
		storage.SetPooling(shape&0x20 == 0)
		probe := probeRel(data, 1+int(batch)%64)
		if shape&1 != 0 {
			probe = runShaped(probe) // zones seeded: constant-key batches say so
		}
		build := buildRel(shape&2 != 0)
		var pred expr.Expr
		if shape&4 != 0 {
			pred = expr.NewCmp(expr.EQ, expr.Col("P.keep"), expr.Int(1))
		}
		out := []int{5, 4, 1, 2, 3, 6, 0}
		if shape&8 != 0 {
			out = []int{4, 6} // B.s, P.v: the groupby_station shape
		}
		dop := 1 + int(shape>>4&1)
		join := func() Operator {
			bs, err := NewRelScan(build, buildNames, buildKinds, nil)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := NewRelScan(probe, probeNames, probeKinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			j, err := NewHashJoinCols(bs, ps, []int{0}, []int{0}, out)
			if err != nil {
				t.Fatal(err)
			}
			j.SetParallel(dop)
			return j
		}
		probeRows := rowsOf(probe)
		if pred != nil {
			probeRows = rowsOf(naiveFilter(t, probe, probeNames, probeKinds, pred))
		}
		got, err := Collect(join(), DrainOpts{DOP: dop, Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rowsOf(got), nestedLoopJoin(rowsOf(build), probeRows, out), "join vs nested loop")
		got.Release()

		// GROUP BY an emitted build column: B.s, or B.t.
		groupCols := []int{1}
		switch {
		case shape&8 != 0:
			groupCols = []int{0}
		case shape&0x40 != 0:
			groupCols = []int{2}
		}
		v := expr.Col("P.v")
		aggs := []AggColumn{
			{Func: AggCount, Name: "n"},
			{Func: AggAvg, Arg: v, Name: "avg"},
			{Func: AggSum, Arg: v, Name: "sum"},
			{Func: AggMin, Arg: v, Name: "min"},
			{Func: AggMax, Arg: v, Name: "max"},
			{Func: AggStddev, Arg: v, Name: "sd"},
		}
		h, err := NewHashAggregate(join(), groupCols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		h.SetParallel(dop)
		agg, err := Collect(h, DrainOpts{Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, canonNaN(rowsOf(agg)), canonNaN(refAggregate(t, join(), groupCols, aggs)),
			fmt.Sprintf("group by %s vs per-row reference", h.Names()[0]))
		agg.Release()
		storage.RequireNoLeaks(t)
	})
}
