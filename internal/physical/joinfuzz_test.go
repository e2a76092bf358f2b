package physical

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

var (
	probeNames = []string{"P.k", "P.v", "P.keep", "P.t", "P.u"}
	probeKinds = []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindInt64, storage.KindTime, storage.KindTime}
	buildNames = []string{"B.k", "B.t", "B.f", "B.b", "B.s", "B.lo", "B.hi"}
	buildKinds = []storage.Kind{storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindBool, storage.KindString,
		storage.KindTime, storage.KindTime}
)

// nb is the build width: probe column c is at nb+c in build++probe.
var nb = len(buildNames)

// probeRel decodes fuzz bytes into probe rows (k, v, keep, t, u), batch
// rows per batch. Each control byte starts a run of one key: its length
// (one row up to a few batches), the key — 0..3 have build rows, 4 and
// 5 do not, so unmatched runs fall between matched ones — and how the
// run's rows alternate in and out of the selection; a value byte per
// row, which also picks the row's times t and u from times.
func probeRel(data []byte, batch int, times []int64) *storage.Relation {
	var k, keep, ts, us []int64
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
			ts, us = append(ts, times[int(b)%len(times)]), append(us, times[int(c^b)%len(times)])
		}
	}
	rel := storage.NewRelation()
	for lo := 0; lo < len(k); lo += batch {
		hi := min(lo+batch, len(k))
		rel.Append(storage.NewBatch(storage.NewInt64Column(k[lo:hi]), storage.NewFloat64Column(v[lo:hi]),
			storage.NewInt64Column(keep[lo:hi]), storage.NewTimeColumn(ts[lo:hi]), storage.NewTimeColumn(us[lo:hi])))
	}
	return rel
}

// buildRel is the build side: one row per key 0..3, and with dup a
// second row for keys 1 and 3. Its time, float, bool and string columns
// are functions of the row, so duplicate keys carry different values;
// so are its band bounds, lo and hi stepped from lo0 and hi0 (wrapping).
func buildRel(dup bool, lo0, hi0 int64) *storage.Relation {
	keys := []int64{0, 1, 2, 3}
	if dup {
		keys = append(keys, 3, 1)
	}
	n := len(keys)
	ts, fs, bs, ss := make([]int64, n), make([]float64, n), make([]bool, n), make([]string, n)
	los, his := make([]int64, n), make([]int64, n)
	for r := range keys {
		ts[r], fs[r] = 1_000*int64(r), float64(r)/4-0.5
		bs[r], ss[r] = r%2 == 0, runStations[r%len(runStations)]
		los[r], his[r] = lo0+int64(r)*bandStep, hi0-int64(r)*bandStep
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewInt64Column(keys), storage.NewTimeColumn(ts),
		storage.NewFloat64Column(fs), storage.NewBoolColumn(bs), storage.NewStringColumn(ss),
		storage.NewTimeColumn(los), storage.NewTimeColumn(his)))
	return rel
}

// bandStep spaces the band bounds of consecutive build rows.
const bandStep = 1 << 40

// bandTimes are the probe times a banded fuzz run draws from: both
// sides of the ends of int64 and of every build row's band edges — as
// bounds of a probe-side time, and as a probe-side band around B.lo.
func bandTimes(lo0, hi0, slack int64) []int64 {
	out := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for r := int64(0); r < 6; r++ {
		lo, hi := lo0+r*bandStep, hi0-r*bandStep
		out = append(out, lo-slack, lo-slack+1, lo, hi-1, hi, hi+1, lo+1, lo+slack-1, lo+slack)
	}
	return out
}

// inBand is the band's reference: hi ≤ lo, or some v ≡ t (mod 2^64)
// with lo − slack < v < hi, on unbounded integers.
func inBand(t, lo, hi, slack int64) bool {
	if hi <= lo {
		return true
	}
	from := new(big.Int).Sub(big.NewInt(lo), big.NewInt(slack))
	wrap := new(big.Int).Lsh(big.NewInt(1), 64)
	for k := int64(-1); k <= 1; k++ {
		v := new(big.Int).Add(big.NewInt(t), new(big.Int).Mul(big.NewInt(k), wrap))
		if v.Cmp(from) > 0 && v.Cmp(big.NewInt(hi)) < 0 {
			return true
		}
	}
	return false
}

// nestedLoopJoin is the reference join: for every probe row in order,
// every build row with an equal key (and, with a band, in it) in build
// order, projected to out (positions in build++probe).
func nestedLoopJoin(build, probe [][]any, out []int, band *joinBand) [][]any {
	var res [][]any
	for _, p := range probe {
		for _, b := range build {
			if b[0] != p[0] {
				continue
			}
			all := append(slices.Clone(b), p...)
			if band != nil && !inBand(all[band.t].(int64), all[band.lo].(int64), all[band.hi].(int64), band.slack) {
				continue
			}
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
// deferred selection, against unique and duplicate build keys, with and
// without a time band whose bounds and slack reach the ends of int64 —
// and compares its materialized output, every build column kind
// included, row for row with a nested-loop join (filtered by the band
// on unbounded integers). It then groups the join by an emitted build
// column and compares the aggregate bit for bit with the per-row
// reference fold.
func FuzzJoinProbe(f *testing.F) {
	const hour = int64(3600e9)
	f.Add([]byte{0x13, 1, 2, 3, 0x4a, 9, 0x23, 0x80, 0x81, 0x85, 0x07, 0x31}, uint8(0), uint8(8), int64(0), int64(0), int64(0))
	f.Add([]byte{0x0f, 0xff, 0x41, 0x12, 0x5a, 0x33, 0x87, 0x21}, uint8(0x1f), uint8(3), int64(0), int64(0), int64(0))
	f.Add([]byte{0x48, 0x18, 0x58, 0x28, 0x38, 0x08}, uint8(0x05), uint8(1), int64(0), int64(0), int64(0))
	f.Add([]byte("join probe runs: \x00\x10\x20\x30\x40\x50\x88\x98"), uint8(0x0a), uint8(40), int64(0), int64(0), int64(0))
	// Banded: the windowdataview shape, and bands wrapping past both
	// ends of int64, or spanning all of it.
	f.Add([]byte("band over segments \x01\x11\x21\x31\x8a\x9a\x2f"), uint8(0x22), uint8(5), int64(1262304000e9), int64(1262304000e9+3*hour), hour)
	f.Add([]byte("0x"), uint8(0x22), uint8(5), int64(1262304000e9), int64(1262304000e9+3*hour), hour) // a time at hi − 1
	f.Add([]byte{0x1f, 0x2f, 0x3f, 0x0f, 7, 8, 9, 10, 11, 12, 13}, uint8(0x2b), uint8(7), int64(math.MinInt64+5), int64(math.MinInt64+hour), hour)
	f.Add([]byte{0x2f, 0x1f, 0x3f, 20, 21, 22, 23, 24}, uint8(0x23), uint8(2), int64(math.MaxInt64-hour), int64(math.MaxInt64), int64(math.MaxInt64))
	f.Add([]byte{0x3f, 0x0f, 0x1f, 30, 31, 32, 33}, uint8(0x26), uint8(64), int64(math.MinInt64), int64(math.MaxInt64), int64(2))
	f.Add([]byte("bounds on the probe side \x13\x23\x33\x9b\xab"), uint8(0x12), uint8(6), int64(1262304000e9), int64(1262304000e9+3*hour), hour)
	f.Fuzz(func(t *testing.T, data []byte, shape, batch uint8, lo0, hi0, slack int64) {
		slack = max(1, slack&math.MaxInt64)
		probe := probeRel(data, 1+int(batch)%64, bandTimes(lo0, hi0, slack))
		if shape&1 != 0 {
			probe = runShaped(probe) // zones seeded: constant-key batches say so
		}
		build := buildRel(shape&2 != 0, lo0, hi0)
		var pred expr.Expr
		if shape&4 != 0 {
			pred = expr.NewCmp(expr.EQ, expr.Col("P.keep"), expr.Int(1))
		}
		out := []int{nb, 4, 1, 2, 3, nb + 1, 0, 5, nb + 3}
		if shape&8 != 0 {
			out = []int{4, nb + 1} // B.s, P.v: the groupby_station shape
		}
		var band *joinBand
		switch {
		case shape&0x20 != 0: // P.t in (B.lo − slack, B.hi)
			band = &joinBand{t: nb + 3, lo: 5, hi: 6, slack: slack}
		case shape&0x10 != 0: // B.lo in (P.t − slack, P.u)
			band = &joinBand{t: 5, lo: nb + 3, hi: nb + 4, slack: slack}
		}
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
			if band != nil {
				if err := j.SetBand(band.t, band.lo, band.hi, band.slack); err != nil {
					t.Fatal(err)
				}
			}
			return j
		}
		probeRows := rowsOf(probe)
		if pred != nil {
			probeRows = rowsOf(naiveFilter(t, probe, probeNames, probeKinds, pred))
		}
		got, err := Collect(join(), DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rowsOf(got), nestedLoopJoin(rowsOf(build), probeRows, out, band), "join vs nested loop")

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
		agg, err := Collect(h, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, canonNaN(rowsOf(agg)), canonNaN(refAggregate(t, join(), groupCols, aggs)),
			fmt.Sprintf("group by %s vs per-row reference", h.Names()[0]))
	})
}
