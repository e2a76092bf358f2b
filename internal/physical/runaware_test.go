package physical

// Differential tests for run-aware stage 2: the key-run memo of the
// join probe and the grouped fold, the selection-view join output and
// its column pruning must return, row for row and bit for bit, what a
// row-at-a-time hash join and fold written here return — over clustered
// and shuffled keys, unique and duplicate build keys, batches that
// straddle segment boundaries, probe batches with and without selection
// vectors, every output-column shape, int-backed and string-carrying
// keys.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

var (
	runFactNames = []string{"D.file", "D.seg", "D.ts", "D.station", "D.val"}
	runFactKinds = []storage.Kind{storage.KindInt64, storage.KindInt64, storage.KindTime, storage.KindString, storage.KindFloat64}
	runDimNames  = []string{"S.file", "S.seg", "S.win", "S.station", "S.gain"}
	runDimKinds  = runFactKinds
	runStations  = []string{"FIAM", "ISK", "AQU", "CERA"}
)

// runFact builds the probe side: files of 1 000 rows in segments of 300,
// ts a window stamp changing every 100 rows, cut into 350-row batches
// that straddle window, segment and file boundaries; shuffled permutes
// the rows. Files 0..5; file 5 has no build row.
func runFact(rng *rand.Rand, shuffled bool) *storage.Relation {
	const rows, perBatch = 6000, 350
	order := make([]int, rows)
	for i := range order {
		order[i] = i
	}
	if shuffled {
		rng.Shuffle(rows, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += perBatch {
		n := min(perBatch, rows-lo)
		file, seg, ts := make([]int64, n), make([]int64, n), make([]int64, n)
		st, val := make([]string, n), make([]float64, n)
		for i := range file {
			r := order[lo+i]
			file[i] = int64(r / 1000)
			seg[i] = int64(r % 1000 / 300)
			ts[i] = int64(r / 100)
			st[i] = runStations[r/1000%len(runStations)]
			val[i] = rng.NormFloat64() * 100
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(file), storage.NewInt64Column(seg),
			storage.NewTimeColumn(ts), storage.NewStringColumn(st), storage.NewFloat64Column(val)))
	}
	return rel
}

// runDim builds the build side: one row per (file, seg, win) of files
// 0..4, so keys over (file, seg, win) are unique and every narrower key
// repeats (multi-match); uniqueOn > 0 instead keeps one row per
// distinct value of the first uniqueOn key columns.
func runDim(uniqueOn int) *storage.Relation {
	var file, seg, win []int64
	var st []string
	var gain []float64
	seen := map[[3]int64]bool{}
	for r := 0; r < 5*1000; r += 100 {
		k := [3]int64{int64(r / 1000), int64(r % 1000 / 300), int64(r / 100)}
		id := k
		for c := uniqueOn; c < 3 && uniqueOn > 0; c++ {
			id[c] = 0
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		file, seg, win = append(file, k[0]), append(seg, k[1]), append(win, k[2])
		st = append(st, runStations[k[0]%int64(len(runStations))])
		gain = append(gain, float64(r)/7)
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewInt64Column(file), storage.NewInt64Column(seg),
		storage.NewTimeColumn(win), storage.NewStringColumn(st), storage.NewFloat64Column(gain)))
	return rel
}

// rowsOf flattens a relation into comparable cells, floats as bits.
func rowsOf(rel *storage.Relation) [][]any {
	var out [][]any
	for _, b := range rel.Batches() {
		for r := 0; r < b.Len(); r++ {
			row := make([]any, b.Width())
			for c := range row {
				row[c] = storage.ValueAt(b.Cols[c], r)
				if f, ok := row[c].(float64); ok {
					row[c] = math.Float64bits(f)
				}
			}
			out = append(out, row)
		}
	}
	return out
}

func sameRows(t *testing.T, got, want [][]any, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("%s: row %d = %v, want %v", label, r, got[r], want[r])
		}
	}
}

// refJoin is the per-row hash join: every probe row, in order, against
// every build row with an equal key, in build order.
func refJoin(dim, fact [][]any, lk, rk, out []int) [][]any {
	key := func(row []any, cols []int) string {
		s := ""
		for _, c := range cols {
			s += fmt.Sprint(row[c]) + "|"
		}
		return s
	}
	table := map[string][]int{}
	for i, row := range dim {
		table[key(row, lk)] = append(table[key(row, lk)], i)
	}
	var res [][]any
	for _, frow := range fact {
		for _, di := range table[key(frow, rk)] {
			all := append(append([]any{}, dim[di]...), frow...)
			row := all
			if out != nil {
				row = make([]any, len(out))
				for i, o := range out {
					row[i] = all[o]
				}
			}
			res = append(res, row)
		}
	}
	return res
}

func TestRunAwareJoinMatchesPerRowHash(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	keySets := []struct {
		name     string
		lk, rk   []int
		uniqueOn int // 0: the full dimension (unique only on all three int columns)
	}{
		{"file", []int{0}, []int{0}, 1},
		{"file dup", []int{0}, []int{0}, 0},
		{"file,seg", []int{0, 1}, []int{0, 1}, 2},
		{"file,seg dup", []int{0, 1}, []int{0, 1}, 0},
		{"file,seg,win", []int{0, 1, 2}, []int{0, 1, 2}, 0},
		{"station", []int{3}, []int{3}, 1}, // string key; files 0 and 4 share a station
		{"file,station", []int{0, 3}, []int{0, 3}, 1},
	}
	outs := [][]int{
		nil,
		{9},       // zero build columns: D.val alone
		{4, 3},    // zero probe columns
		{9, 0, 7}, // both sides, reordered
		{5},       // a probe key column alone (what COUNT(*) keeps)
	}
	preds := []expr.Expr{
		nil,
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e9)), // all fail
	}
	for _, shuffled := range []bool{false, true} {
		fact := runFact(rng, shuffled)
		for _, ks := range keySets {
			dim := runDim(ks.uniqueOn)
			for pi, pred := range preds {
				factRows := rowsOf(fact)
				if pred != nil {
					factRows = rowsOf(naiveFilter(t, fact, runFactNames, runFactKinds, pred))
				}
				for oi, out := range outs {
					want := refJoin(rowsOf(dim), factRows, ks.lk, ks.rk, out)
					ds, err := NewRelScan(dim, runDimNames, runDimKinds, nil)
					if err != nil {
						t.Fatal(err)
					}
					fs, err := NewRelScan(fact, runFactNames, runFactKinds, pred)
					if err != nil {
						t.Fatal(err)
					}
					j, err := NewHashJoinCols(ds, fs, ks.lk, ks.rk, out)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Collect(j, DrainOpts{})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("join %s shuffled=%v pred#%d out#%d", ks.name, shuffled, pi, oi)
					sameRows(t, rowsOf(got), want, label)
				}
			}
		}
	}
}

// TestJoinUniqueBuildPassesProbeThrough pins the mechanism, not just
// the result: against a build side without duplicate keys the probe
// columns of the output ARE the input's columns (no copy), and a
// duplicate key anywhere falls back to gathered copies.
func TestJoinUniqueBuildPassesProbeThrough(t *testing.T) {
	fact := runFact(rand.New(rand.NewSource(72)), false)
	for _, tc := range []struct {
		uniqueOn int
		shared   bool
	}{{2, true}, {0, false}} {
		ds, _ := NewRelScan(runDim(tc.uniqueOn), runDimNames, runDimKinds, nil)
		fs, _ := NewRelScan(fact, runFactNames, runFactKinds, nil)
		j, err := NewHashJoinCols(ds, fs, []int{0, 1}, []int{0, 1}, []int{4, 9})
		if err != nil {
			t.Fatal(err)
		}
		b, err := j.Next()
		if err != nil || b == nil {
			t.Fatalf("first batch: %v, %v", b, err)
		}
		if shared := b.Cols[1] == fact.Batches()[0].Cols[4]; shared != tc.shared {
			t.Fatalf("uniqueOn=%d: probe column shared = %v, want %v", tc.uniqueOn, shared, tc.shared)
		}
	}
	ds, _ := NewRelScan(fact, runFactNames, runFactKinds, nil)
	fs, _ := NewRelScan(fact, runFactNames, runFactKinds, nil)
	if _, err := NewHashJoinCols(ds, fs, []int{0}, []int{0}, []int{}); err == nil {
		t.Fatal("a join emitting no column must be rejected: its row count would be lost")
	}
}

// poison fills the join's reusable buffers, to their full capacity,
// with what a probe's id vector holds after dangling keys: -1
// everywhere. Later batches reuse what earlier ones wrote there.
func poison(j *HashJoin) {
	for _, p := range []*[]int32{&j.sel, &j.rows, &j.rowEnds, &j.leftIdx, &j.rightIdx} {
		*p = slices.Repeat([]int32{-1}, storage.BatchSize)[:0]
	}
}

// TestWholeBaseConsumerAboveViewJoin: a Filter whose predicate takes the
// mask path evaluates the join's whole base batch, rows the selection
// excludes included — so the build-side string column laid under a
// partially matching probe batch must hold a valid dictionary code at
// every row, whatever the reused buffers it was laid into held before.
func TestWholeBaseConsumerAboveViewJoin(t *testing.T) {
	fact := runFact(rand.New(rand.NewSource(73)), false)
	out := []int{3, 8, 9} // S.station, D.station, D.val
	pred := expr.NewOr(
		expr.NewCmp(expr.NE, expr.Col("D.station"), expr.Col("S.station")), // string col-vs-col: mask path
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)))
	for _, tc := range []struct {
		name   string
		dim    *storage.Relation
		lk, rk []int
	}{
		{"view", runDim(2), []int{0, 1}, []int{0, 1}}, // file 5's rows dangle
		{"gather", runDim(0), []int{1}, []int{1}},     // a segment pairs up across files
	} {
		var want [][]any
		for _, row := range refJoin(rowsOf(tc.dim), rowsOf(fact), tc.lk, tc.rk, out) {
			if row[0] != row[1] || math.Float64frombits(row[2].(uint64)) > 0 {
				want = append(want, row)
			}
		}
		ds, _ := NewRelScan(tc.dim, runDimNames, runDimKinds, nil)
		fs, _ := NewRelScan(fact, runFactNames, runFactKinds, nil)
		j, err := NewHashJoinCols(ds, fs, tc.lk, tc.rk, out)
		if err != nil {
			t.Fatal(err)
		}
		poison(j)
		f, err := NewFilter(j, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(f, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rowsOf(got), want, tc.name+" join under a mask-path filter")
	}
}

// refAggregate is the per-row hash fold of the whole input in row
// order: every row looks its group up in a map and updates its states
// one value at a time (refAdd), rendered through refRender.
func refAggregate(t *testing.T, in Operator, groupCols []int, aggs []AggColumn) [][]any {
	t.Helper()
	var order []string
	keys, states := map[string][]any{}, map[string][]aggState{}
	if len(groupCols) == 0 {
		order, keys[""], states[""] = []string{""}, nil, make([]aggState, len(aggs))
	}
	names := in.Names()
	for {
		b, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		b = b.Materialize()
		for r := 0; r < b.Len(); r++ {
			k, kv := "", []any(nil)
			for _, gc := range groupCols {
				kv = append(kv, storage.ValueAt(b.Cols[gc], r))
				k += fmt.Sprint(kv[len(kv)-1]) + "|"
			}
			if _, ok := states[k]; !ok {
				order, keys[k], states[k] = append(order, k), kv, make([]aggState, len(aggs))
			}
			for i, a := range aggs {
				st := &states[k][i]
				if a.Arg == nil {
					st.n++
					continue
				}
				ci := -1
				for c, n := range names {
					if n == a.Arg.(*expr.ColRef).Name {
						ci = c
					}
				}
				refAdd(st, storage.ValueAt(b.Cols[ci], r))
			}
		}
	}
	h, err := NewHashAggregate(NewEmpty(in.Names(), in.Kinds()), groupCols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, k := range order {
		builders := h.newBuilders(1)
		for i, v := range keys[k] {
			builders[i].AppendAny(v)
		}
		for i, a := range aggs {
			iv, fv := refRender(a.Func, states[k][i])
			appendNum(builders[len(groupCols)+i], iv, fv)
		}
		rel := storage.NewRelation()
		rel.Append(finishBuilders(builders))
		rows = append(rows, rowsOf(rel)[0])
	}
	// Ascending by integer group columns, then string ones — the
	// operator's (and index.Key's) order.
	sort.SliceStable(rows, func(i, j int) bool {
		for pass := 0; pass < 2; pass++ {
			for c := range groupCols {
				switch a := rows[i][c].(type) {
				case int64:
					if b := rows[j][c].(int64); pass == 0 && a != b {
						return a < b
					}
				case string:
					if b := rows[j][c].(string); pass == 1 && a != b {
						return a < b
					}
				}
			}
		}
		return false
	})
	return rows
}

func TestRunAwareAggregateMatchesPerRowHash(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	aggs := []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
		{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
		{Func: AggMin, Arg: expr.Col("D.ts"), Name: "t0"},
		{Func: AggSum, Arg: expr.Col("D.seg"), Name: "segs"},
	}
	groupings := [][]int{
		{},        // global: no key, no hashing
		{0},       // file
		{0, 1},    // file, seg
		{0, 1, 2}, // file, seg, ts
		{3},       // station: string key
		{3, 1},    // station, seg: mixed
	}
	preds := []expr.Expr{
		nil,
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(1e9)),
		// Nothing but zone bounds: batches wholly inside skip EvalSel.
		expr.NewAnd(
			expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(12)),
			expr.NewCmp(expr.LT, expr.Col("D.ts"), expr.Time(47))),
	}
	for _, shuffled := range []bool{false, true} {
		fact := runFact(rng, shuffled)
		scan := func(pred expr.Expr) Operator {
			s, err := NewRelScan(fact, runFactNames, runFactKinds, pred)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for gi, groupCols := range groupings {
			for pi, pred := range preds {
				want := refAggregate(t, scan(pred), groupCols, aggs)
				agg, err := NewHashAggregate(scan(pred), groupCols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Collect(agg, DrainOpts{})
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, rowsOf(got), want, fmt.Sprintf("aggregate group#%d shuffled=%v pred#%d", gi, shuffled, pi))
			}
		}
	}
}

// TestExactBoundsSkipEvaluation: a predicate that is nothing but zone
// bounds hands a wholly-inside batch on without a selection vector; one
// extra conjunct puts the evaluation back.
func TestExactBoundsSkipEvaluation(t *testing.T) {
	fact := runFact(rand.New(rand.NewSource(74)), false)
	bounds := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.ts"), expr.Time(2)),
		expr.NewCmp(expr.LE, expr.Col("D.ts"), expr.Time(1000)))
	for _, tc := range []struct {
		pred  expr.Expr
		exact bool
	}{
		{bounds, true},
		{expr.NewAnd(bounds, expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(1e9))), false},
	} {
		s, err := NewRelScan(fact, runFactNames, runFactKinds, tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if s.exact != tc.exact {
			t.Fatalf("exact = %v for %s", s.exact, tc.pred)
		}
		b, err := s.Next() // rows 0..349: ts 0..3 straddles the lower bound
		if err != nil || b.Sel() == nil || b.Len() != 150 {
			t.Fatalf("straddling batch: %d rows, sel %v, err %v", b.Len(), b.Sel() != nil, err)
		}
		b, err = s.Next() // rows 350..699: ts 3..6, wholly inside
		if err != nil || b.Sel() != nil || b.Len() != 350 {
			t.Fatalf("inside batch: %d rows, sel %v, err %v", b.Len(), b.Sel() != nil, err)
		}
		if !s.lastConst([]int{0}) || s.lastConst([]int{2}) {
			t.Fatal("zone maps should report D.file constant and D.ts varying over the second batch")
		}
	}
}

// TestKeyIndexResetDropsLargeMaps: a pooled index that served a large
// key set must not make every later (small) user pay for clearing that
// capacity — stage 1's dozen-row joins draw from the same pool as
// stage 2's ten-thousand-window ones.
func TestKeyIndexResetDropsLargeMaps(t *testing.T) {
	var x keyIndex
	x.reset(true, 2)
	small := reflect.ValueOf(x.multi).Pointer()
	x.intID(intKey{1, 2}, true)
	if x.reset(true, 2); reflect.ValueOf(x.multi).Pointer() != small {
		t.Fatal("a small map should be cleared and kept")
	}
	for i := int64(0); i <= maxPooledKeys; i++ {
		x.intID(intKey{i, i}, true)
	}
	if x.reset(true, 2); reflect.ValueOf(x.multi).Pointer() == small || x.len() != 0 {
		t.Fatal("a map grown past maxPooledKeys should be dropped, not cleared")
	}
}

// runShaped rebuilds rel the way chunk access shapes D: every int64 and
// timestamp column run-length encoded (a shuffled relation degenerates
// to about a run a row, which is still a valid shape), zone maps seeded.
func runShaped(rel *storage.Relation) *storage.Relation {
	var batches []*storage.Batch
	var zones [][]storage.Zone
	for _, b := range rel.Batches() {
		cols := make([]storage.Column, len(b.Cols))
		zs := make([]storage.Zone, len(b.Cols))
		for ci, c := range b.Cols {
			cols[ci], zs[ci] = c, storage.ColumnZone(c)
			if !isIntKeyKind(c.Kind()) {
				continue
			}
			var vals []int64
			var ends []int32
			for i, v := range storage.Int64s(c) {
				if i == 0 || v != vals[len(vals)-1] {
					vals, ends = append(vals, v), append(ends, 0)
				}
				ends[len(ends)-1] = int32(i + 1)
			}
			cols[ci] = storage.NewRunColumn(c.Kind(), vals, ends)
		}
		batches = append(batches, storage.NewBatch(cols...))
		zones = append(zones, zs)
	}
	return storage.NewChunkRelation(batches, zones)
}

// TestRunShapedKeysMatchPlain is the shape differential of stage 2: the
// join probe and the grouped fold over run-shaped key columns — run
// boundaries read off the shape, the constant hint off seeded zones,
// the composite key through the per-row lookup — return, row for row
// and bit for bit, what they return over the plain twins, and what they
// return never carries a shape.
func TestRunShapedKeysMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	collect := func(op Operator) [][]any {
		t.Helper()
		rel, err := Collect(op, DrainOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range rel.Batches() {
			for ci, c := range b.Cols {
				if _, _, shaped := storage.Runs(c); shaped {
					t.Fatalf("result column %d left the engine run-shaped", ci)
				}
			}
		}
		return rowsOf(rel)
	}
	scan := func(rel *storage.Relation, pred expr.Expr) Operator {
		t.Helper()
		s, err := NewRelScan(rel, runFactNames, runFactKinds, pred)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	preds := []expr.Expr{
		nil,
		expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0)),
		// On a run-shaped column: the mask path, by expansion.
		expr.NewCmp(expr.GE, expr.Col("D.seg"), expr.Int(1)),
	}
	joins := []struct {
		name     string
		lk, rk   []int
		uniqueOn int
		out      []int
	}{
		{"file", []int{0}, []int{0}, 1, []int{9}},
		{"file,seg", []int{0, 1}, []int{0, 1}, 2, []int{9, 5, 6, 7}},
		{"file,seg dup", []int{0, 1}, []int{0, 1}, 0, []int{4, 7, 9}},
		{"file,seg,win", []int{0, 1, 2}, []int{0, 1, 2}, 0, nil},
		{"file,station", []int{0, 3}, []int{0, 3}, 1, []int{7, 8, 9}},
	}
	aggs := []AggColumn{
		{Func: AggCount, Name: "n"},
		{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
		{Func: AggMin, Arg: expr.Col("D.ts"), Name: "t0"},
		{Func: AggSum, Arg: expr.Col("D.seg"), Name: "segs"},
	}
	groupings := [][]int{{}, {0}, {0, 1}, {0, 1, 2}, {3, 1}}
	for _, shuffled := range []bool{false, true} {
		plain := runFact(rng, shuffled)
		shaped := runShaped(plain)
		for pi, pred := range preds {
			for _, jc := range joins {
				join := func(fact *storage.Relation) Operator {
					ds, err := NewRelScan(runDim(jc.uniqueOn), runDimNames, runDimKinds, nil)
					if err != nil {
						t.Fatal(err)
					}
					j, err := NewHashJoinCols(ds, scan(fact, pred), jc.lk, jc.rk, jc.out)
					if err != nil {
						t.Fatal(err)
					}
					return j
				}
				sameRows(t, collect(join(shaped)), collect(join(plain)),
					fmt.Sprintf("join %s shuffled=%v pred#%d", jc.name, shuffled, pi))
			}
			for gi, groupCols := range groupings {
				agg := func(fact *storage.Relation) Operator {
					a, err := NewHashAggregate(scan(fact, pred), groupCols, aggs)
					if err != nil {
						t.Fatal(err)
					}
					return a
				}
				sameRows(t, collect(agg(shaped)), collect(agg(plain)),
					fmt.Sprintf("aggregate group#%d shuffled=%v pred#%d", gi, shuffled, pi))
			}
			// Top-k and sort over run-shaped order keys, and a bare
			// scan: the drain itself hands shapes to no sink.
			keys := []SortKey{{Col: 0, Desc: true}, {Col: 2}, {Col: 4}}
			topk := func(fact *storage.Relation) Operator {
				k, err := NewTopK(scan(fact, pred), keys, 37)
				if err != nil {
					t.Fatal(err)
				}
				return k
			}
			label := fmt.Sprintf("shuffled=%v pred#%d", shuffled, pi)
			sameRows(t, collect(topk(shaped)), collect(topk(plain)), "topk "+label)
			sorted := func(fact *storage.Relation) Operator {
				s, err := NewSort(scan(fact, pred), keys)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			sameRows(t, collect(sorted(shaped)), collect(sorted(plain)), "sort "+label)
			sameRows(t, collect(scan(shaped, pred)), collect(scan(plain, pred)), "scan "+label)
		}
	}
}

// TestJoinLargeBuildDuplicateKeys probes a 16 k-row build side with
// duplicate keys — a build drain of several batches, a table larger
// than a batch, the multi-match gather — and matches the per-row hash
// join row for row.
func TestJoinLargeBuildDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dim := storage.NewRelation()
	for bi := 0; bi < 4; bi++ {
		ids, xs := make([]int64, 1<<12), make([]float64, 1<<12)
		for i := range ids {
			ids[i], xs[i] = rng.Int63n(1<<14), float64(i)
		}
		dim.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(xs)))
	}
	fact := storage.NewRelation()
	for bi := 0; bi < 8; bi++ {
		ids := make([]int64, 512)
		for i := range ids {
			ids[i] = rng.Int63n(1 << 14)
		}
		fact.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	}
	ds, err := NewRelScan(dim, []string{"F.id", "F.x"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewRelScan(fact, []string{"D.id"}, []storage.Kind{storage.KindInt64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := refJoin(rowsOf(dim), rowsOf(fact), []int{0}, []int{0}, nil)
	if len(want) == 0 {
		t.Fatal("no build key matched: the test proves nothing")
	}
	sameRows(t, rowsOf(got), want, "large build")
}
