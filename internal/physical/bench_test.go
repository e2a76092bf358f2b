package physical

import (
	"math"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

func benchRel(rows int) (*storage.Relation, []string, []storage.Kind) {
	rng := rand.New(rand.NewSource(3))
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := min(storage.BatchSize, rows-lo)
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(64))
			vals[i] = rng.NormFloat64() * 1000
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	return rel, []string{"D.file_id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
}

func BenchmarkFilterScan(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(s, DrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterChain stacks a residual Filter above a filtering scan:
// the selection-composition hot path (no intermediate gather).
func BenchmarkFilterChain(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	scanPred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-500))
	residual := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(500)),
		expr.NewCmp(expr.GE, expr.Col("D.file_id"), expr.Int(8)))
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, scanPred)
		if err != nil {
			b.Fatal(err)
		}
		f, err := NewFilter(s, residual)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(f, DrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoneSkipScan scans a relation whose batches carry disjoint
// file_id ranges with a predicate selecting one batch: the zone-map
// pruning path.
func BenchmarkZoneSkipScan(b *testing.B) {
	rel := storage.NewRelation()
	nBatches := 16
	for bi := 0; bi < nBatches; bi++ {
		ids := make([]int64, storage.BatchSize)
		vals := make([]float64, storage.BatchSize)
		for i := range ids {
			ids[i] = int64(bi*1000 + i%1000)
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	names := []string{"D.file_id", "D.val"}
	kinds := []storage.Kind{storage.KindInt64, storage.KindFloat64}
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.file_id"), expr.Int(5000)),
		expr.NewCmp(expr.LT, expr.Col("D.file_id"), expr.Int(6000)))
	rel.Zone(0, 0) // warm the zone cache outside the loop
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(s, DrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinProbe(b *testing.B) {
	dimRel := storage.NewRelation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	dimRel.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	factRel, fnames, fkinds := benchRel(1 << 16)
	b.SetBytes(int64(factRel.Rows()) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, _ := NewRelScan(dimRel, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
		fs, _ := NewRelScan(factRel, fnames, fkinds, nil)
		j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(j, DrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupedAggregate(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := NewRelScan(rel, names, kinds, nil)
		agg, err := NewHashAggregate(s, []int{0}, []AggColumn{
			{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
			{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Collect(agg, DrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// keyedRel is the fact side of the key-run benchmarks: 64 k rows over
// (file, seg, station, val), clustered the way actual data arrives —
// 16 k rows per file in segments of 3 300, one station per file — or the
// same rows shuffled, where every row starts a new key run and the memo
// only ever misses.
func keyedRel(shuffled bool) (*storage.Relation, []string, []storage.Kind) {
	const rows = 1 << 16
	rng := rand.New(rand.NewSource(5))
	order := rng.Perm(rows)
	stations := []string{"FIAM", "ISK", "AQU", "CERA"}
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += storage.BatchSize {
		file, seg := make([]int64, storage.BatchSize), make([]int64, storage.BatchSize)
		st, val := make([]string, storage.BatchSize), make([]float64, storage.BatchSize)
		for i := range file {
			r := lo + i
			if shuffled {
				r = order[r]
			}
			file[i], seg[i] = int64(r>>14), int64(r&(1<<14-1)/3300)
			st[i], val[i] = stations[r>>14], rng.NormFloat64()*1000
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(file), storage.NewInt64Column(seg),
			storage.NewStringColumn(st), storage.NewFloat64Column(val)))
	}
	return rel, []string{"D.file_id", "D.segment_id", "D.station", "D.val"},
		[]storage.Kind{storage.KindInt64, storage.KindInt64, storage.KindString, storage.KindFloat64}
}

// BenchmarkHashJoinProbeKeys probes a unique (file[, seg]) build side
// with clustered and with shuffled keys: the hit and the miss cost of
// the probe's key-run memo.
func BenchmarkHashJoinProbeKeys(b *testing.B) {
	var dfile, dseg []int64
	for f := int64(0); f < 4; f++ {
		for s := int64(0); s < 5; s++ {
			dfile, dseg = append(dfile, f), append(dseg, s)
		}
	}
	dims := map[int]*storage.Relation{1: storage.NewRelation(), 2: storage.NewRelation()}
	dims[1].Append(storage.NewBatch(storage.NewInt64Column([]int64{0, 1, 2, 3}), storage.NewInt64Column([]int64{0, 0, 0, 0})))
	dims[2].Append(storage.NewBatch(storage.NewInt64Column(dfile), storage.NewInt64Column(dseg)))
	dnames, dkinds := []string{"S.file_id", "S.segment_id"}, []storage.Kind{storage.KindInt64, storage.KindInt64}
	for _, shuffled := range []bool{false, true} {
		fact, fnames, fkinds := keyedRel(shuffled)
		for _, nk := range []int{1, 2} {
			name := map[bool]string{false: "clustered", true: "shuffled"}[shuffled] + map[int]string{1: "/1col", 2: "/2col"}[nk]
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(fact.Rows()) * 8 * int64(nk))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ds, _ := NewRelScan(dims[nk], dnames, dkinds, nil)
					fs, _ := NewRelScan(fact, fnames, fkinds, nil)
					j, err := NewHashJoin(ds, fs, []int{0, 1}[:nk], []int{0, 1}[:nk])
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Collect(j, DrainOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGroupedAggregateKeys groups by an int and by a string column
// with clustered and with shuffled keys: the hit and the miss cost of
// the fold's last-group memo.
func BenchmarkGroupedAggregateKeys(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		rel, names, kinds := keyedRel(shuffled)
		for _, gc := range []int{0, 2} {
			name := map[bool]string{false: "clustered", true: "shuffled"}[shuffled] + map[int]string{0: "/int", 2: "/string"}[gc]
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(rel.Rows()) * 16)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, _ := NewRelScan(rel, names, kinds, nil)
					agg, err := NewHashAggregate(s, []int{gc}, []AggColumn{
						{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
						{Func: AggCount, Name: "n"},
					})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Collect(agg, DrainOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAggregateFold folds one aggregate function at a time over
// 64 k clustered rows: globally and grouped by file (one key run per
// batch), over the whole batch and through a deferred selection of about
// half its rows. It prices each function's fold kernel alone.
func BenchmarkAggregateFold(b *testing.B) {
	rel, names, kinds := keyedRel(false)
	funcs := []struct {
		name string
		agg  AggColumn
	}{
		{"count", AggColumn{Func: AggCount, Arg: expr.Col("D.val"), Name: "n"}},
		{"countstar", AggColumn{Func: AggCount, Name: "n"}},
		{"sum", AggColumn{Func: AggSum, Arg: expr.Col("D.val"), Name: "sum"}},
		{"avg", AggColumn{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"}},
		{"min", AggColumn{Func: AggMin, Arg: expr.Col("D.val"), Name: "min"}},
		{"max", AggColumn{Func: AggMax, Arg: expr.Col("D.val"), Name: "max"}},
		{"stddev", AggColumn{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"}},
	}
	for _, grouped := range []bool{false, true} {
		var groupCols []int
		shape := "global"
		if grouped {
			groupCols, shape = []int{0}, "grouped"
		}
		for _, f := range funcs {
			for _, selective := range []bool{false, true} {
				var pred expr.Expr
				name := shape + "/" + f.name
				if selective {
					pred, name = expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)), name+"/sel"
				}
				b.Run(name, func(b *testing.B) {
					b.SetBytes(int64(rel.Rows()) * 8)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s, err := NewRelScan(rel, names, kinds, pred)
						if err != nil {
							b.Fatal(err)
						}
						agg, err := NewHashAggregate(s, groupCols, []AggColumn{f.agg})
						if err != nil {
							b.Fatal(err)
						}
						if _, err := Collect(agg, DrainOpts{}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkJoinGroupBy is the groupby_station shape: the probe emits
// the build side's station column under D, and GROUP BY that column
// folds AVG and COUNT(*). Clustered keys come run-shaped, as chunk
// access delivers D (a key run or two per batch); shuffled keys start a
// new run at almost every row.
func BenchmarkJoinGroupBy(b *testing.B) {
	dim := storage.NewRelation()
	dim.Append(storage.NewBatch(storage.NewInt64Column([]int64{0, 1, 2, 3}),
		storage.NewStringColumn([]string{"FIAM", "ISK", "AQU", "CERA"})))
	dnames, dkinds := []string{"F.file_id", "F.station"}, []storage.Kind{storage.KindInt64, storage.KindString}
	for _, shuffled := range []bool{false, true} {
		fact, fnames, fkinds := keyedRel(shuffled)
		name := "shuffled"
		if !shuffled {
			fact, name = runShaped(fact), "clustered"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(fact.Rows()) * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, _ := NewRelScan(dim, dnames, dkinds, nil)
				fs, _ := NewRelScan(fact, fnames, fkinds, nil)
				j, err := NewHashJoinCols(ds, fs, []int{0}, []int{0}, []int{1, 5})
				if err != nil {
					b.Fatal(err)
				}
				agg, err := NewHashAggregate(j, []int{0}, []AggColumn{
					{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
					{Func: AggCount, Name: "n"},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Collect(agg, DrainOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// topkBenchRels builds 160 000 float rows as four chunk relations of
// BatchSize-row batches with their zones seeded, as the chunk build
// seeds them. A trace is seismic-like, as the synthetic archive's: AR(1)
// noise, rounded to integer counts, with one decaying burst per chunk;
// noise is the AR(1) noise alone, whose batch zones overlap.
func topkBenchRels(burst bool) []*storage.Relation {
	rng := rand.New(rand.NewSource(5))
	const rows = 40_000
	level := 0.0
	var rels []*storage.Relation
	for range 4 {
		vals := make([]float64, rows)
		at, amp := rng.Intn(rows/2), 8000+rng.Float64()*24000
		for i := range vals {
			level = level*0.97 + rng.NormFloat64()*40
			v := level
			if burst && i >= at {
				dt := float64(i - at)
				v += amp * math.Exp(-dt/10_000) * math.Sin(dt*0.1*2*math.Pi)
			}
			vals[i] = math.Round(v)
		}
		var bs []*storage.Batch
		var zones [][]storage.Zone
		for lo := 0; lo < rows; lo += storage.BatchSize {
			c := storage.NewFloat64Column(vals[lo:min(lo+storage.BatchSize, rows)])
			bs, zones = append(bs, storage.NewBatch(c)), append(zones, []storage.Zone{storage.ColumnZone(c)})
		}
		rels = append(rels, storage.NewChunkRelation(bs, zones))
	}
	return rels
}

// BenchmarkTopK is hot_scan's topk class in process: ORDER BY
// D.sample_value DESC LIMIT 10 over 160 000 rows of four resident
// chunks, through RelScan.
func BenchmarkTopK(b *testing.B) {
	for _, shape := range []struct {
		name  string
		burst bool
	}{{"trace", true}, {"noise", false}} {
		rels := topkBenchRels(shape.burst)
		names, kinds := []string{"D.sample_value"}, []storage.Kind{storage.KindFloat64}
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(160_000 * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewMultiRelScan(rels, names, kinds, nil)
				if err != nil {
					b.Fatal(err)
				}
				tk, err := NewTopK(s, []SortKey{{Col: 0, Desc: true}}, 10)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Collect(tk, DrainOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
