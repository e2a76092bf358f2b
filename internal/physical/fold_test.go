package physical

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// refAdd folds one argument value into st row by row, every field at
// once: the reference the per-function fold kernels must match bitwise.
// Sums add in row order, extremes follow `!seen || v < min` with seen
// as n > 0, and mean/m2 follow the Welford recurrence, all on
// float64(v) for int64-backed arguments.
func refAdd(st *aggState, v any) {
	var f float64
	switch v := v.(type) {
	case float64:
		f = v
	case int64:
		f = float64(v)
		st.iSum += v
		if st.n == 0 || v < st.iMin {
			st.iMin = v
		}
		if st.n == 0 || v > st.iMax {
			st.iMax = v
		}
	default:
		panic(fmt.Sprintf("refAdd: %T argument", v))
	}
	if st.n == 0 || f < st.min {
		st.min = f
	}
	if st.n == 0 || f > st.max {
		st.max = f
	}
	st.n++
	st.sum += f
	d := f - st.mean
	st.mean += d / float64(st.n)
	st.m2 += d * (f - st.mean)
}

// refRender is f's result over st, as an int64 (int64-backed results)
// and a float64 (float results): AVG is the row-order sum over the
// count, NaN over no rows; STDDEV is the sample deviation, 0 below two
// rows.
func refRender(f AggFuncID, st aggState) (int64, float64) {
	switch f {
	case AggCount:
		return st.n, 0
	case AggSum:
		return st.iSum, st.sum
	case AggAvg:
		if st.n == 0 {
			return 0, math.NaN()
		}
		return 0, st.sum / float64(st.n)
	case AggMin:
		return st.iMin, st.min
	case AggMax:
		return st.iMax, st.max
	default:
		if st.n < 2 {
			return 0, 0
		}
		return 0, math.Sqrt(st.m2 / float64(st.n-1))
	}
}

var (
	foldNames = []string{"D.g", "D.f", "D.i", "D.t", "D.keep"}
	foldKinds = []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindInt64, storage.KindTime, storage.KindInt64}
)

// foldAggs is every function over every argument kind.
func foldAggs() []AggColumn {
	aggs := []AggColumn{{Func: AggCount, Name: "n"}}
	for _, col := range []string{"D.f", "D.i", "D.t"} {
		for f := AggCount; f <= AggStddev; f++ {
			aggs = append(aggs, AggColumn{Func: f, Arg: expr.Col(col), Name: col})
		}
	}
	return aggs
}

// foldRel decodes fuzz bytes into rows of (group, float, int, time,
// keep), batch rows per batch. Each row's control byte picks the float
// (integer-valued, ±0, NaN, ±huge, raw bits or fractional), the int
// (small, near either end of int64, or raw bits), whether the row
// survives the selection, and whether it starts a new group run.
func foldRel(data []byte, batch int) *storage.Relation {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next64 := func() uint64 {
		var u uint64
		for range 8 {
			u = u<<8 | uint64(next())
		}
		return u
	}
	var g, i []int64
	var fl []float64
	var key int64
	for len(data) > 0 && len(g) < 5000 {
		c := next()
		var f float64
		switch c & 7 {
		case 0:
			f = float64(int16(uint16(next())<<8 | uint16(next())))
		case 1:
			f = 0
		case 2:
			f = math.Copysign(0, -1)
		case 3:
			f = math.NaN()
		case 4:
			f = math.Copysign(math.MaxFloat64/3, float64(int8(next())))
		case 5:
			f = math.Float64frombits(next64())
		default:
			f = float64(int8(next())) / 7
		}
		var iv int64
		switch c >> 3 & 3 {
		case 0:
			iv = int64(int8(next()))
		case 1:
			iv = math.MaxInt64 - int64(next())
		case 2:
			iv = math.MinInt64 + int64(next())
		case 3:
			iv = int64(next64())
		}
		if c&0x80 != 0 {
			key = (key + 1 + int64(next()%3)) % 4
		}
		g, fl, i = append(g, key), append(fl, f), append(i, iv)
		if c&0x20 != 0 {
			g[len(g)-1] = -1 - key // dropped by the selection
		}
	}
	rel := storage.NewRelation()
	for lo := 0; lo < len(g); lo += batch {
		hi := min(lo+batch, len(g))
		keep := make([]int64, hi-lo)
		gs := make([]int64, hi-lo)
		for r := range keep {
			gs[r] = g[lo+r]
			if gs[r] >= 0 {
				keep[r] = 1
			} else {
				gs[r] = -1 - gs[r]
			}
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(gs), storage.NewFloat64Column(fl[lo:hi]),
			storage.NewInt64Column(i[lo:hi]), storage.NewTimeColumn(i[lo:hi]), storage.NewInt64Column(keep)))
	}
	return rel
}

// canonNaN maps every NaN cell (floats travel as bits) to one value:
// the fold and the reference must agree that a result is NaN, not on
// its payload.
func canonNaN(rows [][]any) [][]any {
	for _, row := range rows {
		for c, v := range row {
			if u, ok := v.(uint64); ok && math.IsNaN(math.Float64frombits(u)) {
				row[c] = uint64(0x7ff8000000000001)
			}
		}
	}
	return rows
}

// FuzzAggregateFold drives HashAggregate's fold kernels — every
// function over float64, int64 and time arguments, globally or grouped
// by key runs, with or without a deferred selection — against the
// per-row reference fold in row order, bitwise.
func FuzzAggregateFold(f *testing.F) {
	f.Add([]byte{0x00, 0, 7, 0x81, 1, 0x12, 0x83, 2, 0x24, 9, 0x0c, 0x80, 0, 0x47, 3}, uint8(3), uint16(2))
	f.Add([]byte{0x05, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 0x1c, 0x04, 0x80, 0x95, 0x84, 1, 0x23}, uint8(1), uint16(1))
	f.Add([]byte{0x04, 1, 0x04, 1, 0x04, 1, 0x0c, 0xff, 0x14, 0xff}, uint8(0), uint16(40))
	// One-row batches: every batch a run boundary, so the kernels'
	// carried state decides ±0 and int extremes.
	f.Add([]byte("00001010102010100"), uint8(0), uint16(0))
	f.Add([]byte("101010000000000000100"), uint8('9'), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, batch uint16) {
		rel := foldRel(data, 1+int(batch)%300)
		var groupCols []int
		if shape&1 != 0 {
			groupCols = []int{0}
		}
		var pred expr.Expr
		if shape&2 != 0 {
			pred = expr.NewCmp(expr.EQ, expr.Col("D.keep"), expr.Int(1))
		}
		scan := func() Operator {
			s, err := NewRelScan(rel, foldNames, foldKinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		aggs := foldAggs()
		h, err := NewHashAggregate(scan(), groupCols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(h, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, canonNaN(rowsOf(got)), canonNaN(refAggregate(t, scan(), groupCols, aggs)), "fold vs per-row reference")
	})
}

// aggRow runs one global aggregate over a single batch and returns its
// row's cells.
func aggRow(t *testing.T, cols []storage.Column, names []string, kinds []storage.Kind, aggs []AggColumn) []any {
	t.Helper()
	rel := storage.NewRelation()
	if cols[0].Len() > 0 {
		rel.Append(storage.NewBatch(cols...))
	}
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHashAggregate(s, nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(h, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b := out.Batches()[0]
	row := make([]any, b.Width())
	for c := range row {
		row[c] = storage.ValueAt(b.Cols[c], 0)
	}
	return row
}

// TestAvgIsRowOrderSumOverCount pins AVG as the row-order float64 sum
// divided by the count.
func TestAvgIsRowOrderSumOverCount(t *testing.T) {
	avgSum := func(col string) []AggColumn {
		return []AggColumn{
			{Func: AggAvg, Arg: expr.Col(col), Name: "avg"},
			{Func: AggSum, Arg: expr.Col(col), Name: "sum"},
		}
	}
	// Finite values whose sum overflows: AVG is the same ±Inf as SUM
	// (which the render core writes as null), where a running mean
	// stayed finite.
	for _, sign := range []float64{1, -1} {
		v := sign * math.MaxFloat64 / 2
		row := aggRow(t, []storage.Column{storage.NewFloat64Column([]float64{v, v, v, v})},
			[]string{"D.f"}, []storage.Kind{storage.KindFloat64}, avgSum("D.f"))
		if avg := row[0].(float64); !math.IsInf(avg, int(sign)) || avg != row[1].(float64) {
			t.Errorf("AVG of overflowing %g values = %v, SUM = %v; want both %v", v, avg, row[1], math.Inf(int(sign)))
		}
	}

	// Zero rows: NaN.
	row := aggRow(t, []storage.Column{storage.NewFloat64Column(nil)},
		[]string{"D.f"}, []storage.Kind{storage.KindFloat64}, avgSum("D.f"))
	if avg := row[0].(float64); !math.IsNaN(avg) {
		t.Errorf("AVG of zero rows = %v, want NaN", avg)
	}

	// Int64 and time arguments divide the float64 row-order sum, which
	// rounds here (2^53 + 1 is not a float64), not the exact int64 sum.
	ints := []int64{1 << 53, 1, 1}
	want := ((float64(ints[0]) + float64(ints[1])) + float64(ints[2])) / 3
	if exact := float64(ints[0]+ints[1]+ints[2]) / 3; want == exact {
		t.Fatal("test values do not separate the float64 sum from the int64 one")
	}
	for _, kind := range []storage.Kind{storage.KindInt64, storage.KindTime} {
		col := storage.Column(storage.NewInt64Column(ints))
		if kind == storage.KindTime {
			col = storage.NewTimeColumn(ints)
		}
		row := aggRow(t, []storage.Column{col}, []string{"D.x"}, []storage.Kind{kind}, avgSum("D.x"))
		if avg := row[0].(float64); math.Float64bits(avg) != math.Float64bits(want) {
			t.Errorf("AVG over %v = %v, want %v (row-order float64 sum / n)", kind, avg, want)
		}
	}
}

// TestAggregateManyBatchesMatchesRowOrderFold: grouped and global
// aggregates over 24 batches — fast and composite keys, bare and
// computed arguments, some rows or every row filtered out — equal the
// per-row fold of the whole input in row order, bit for bit: SUM, AVG
// and STDDEV included.
func TestAggregateManyBatchesMatchesRowOrderFold(t *testing.T) {
	rel, names, kinds := diffRel(rand.New(rand.NewSource(44)), 24, 512)
	half := expr.NewArith(expr.Mul, expr.Col("D.val"), expr.Float(0.5))
	aggsOver := func(arg expr.Expr) []AggColumn {
		return []AggColumn{
			{Func: AggCount, Name: "n"},
			{Func: AggSum, Arg: arg, Name: "sum"},
			{Func: AggAvg, Arg: arg, Name: "avg"},
			{Func: AggMin, Arg: arg, Name: "mn"},
			{Func: AggMax, Arg: arg, Name: "mx"},
			{Func: AggStddev, Arg: arg, Name: "sd"},
		}
	}
	for _, pred := range []expr.Expr{
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-50)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e12)), // all fail
	} {
		scan := func() Operator {
			s, err := NewRelScan(rel, names, kinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		// The reference input carries the computed argument as D.val.
		halved := func() Operator {
			p, err := NewProject(scan(), names, []expr.Expr{expr.Col("D.id"), expr.Col("D.ts"), half, expr.Col("D.station")})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, groupCols := range [][]int{nil, {0}, {3}, {3, 0}} {
			for _, composite := range []bool{false, true} {
				for _, computed := range []bool{false, true} {
					arg, ref := expr.Expr(expr.Col("D.val")), scan()
					if computed {
						arg, ref = half, halved()
					}
					h, err := NewHashAggregate(scan(), groupCols, aggsOver(arg))
					if err != nil {
						t.Fatal(err)
					}
					h.fastKey = h.fastKey && !composite
					got, err := Collect(h, DrainOpts{})
					if err != nil {
						t.Fatal(err)
					}
					sameRows(t, canonNaN(rowsOf(got)), canonNaN(refAggregate(t, ref, groupCols, aggsOver(expr.Col("D.val")))),
						fmt.Sprintf("pred %v group %v composite=%v computed=%v", pred, groupCols, composite, computed))
				}
			}
		}
	}
}
