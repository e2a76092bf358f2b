package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The shape differential: a RunColumn and the plain column holding the
// same rows must be indistinguishable through every operation that
// reads or copies a column.

// randRunPair returns a random run column of rows rows (0 allowed) and
// its plain twin. Adjacent runs may repeat a value.
func randRunPair(rng *rand.Rand, kind Kind, rows int) (*RunColumn, Column) {
	var (
		vals  []int64
		ends  []int32
		plain []int64
	)
	for len(plain) < rows {
		n := 1 + rng.Intn(1+(rows-len(plain))/(1+rng.Intn(4)))
		n = min(n, rows-len(plain))
		v := rng.Int63n(7) - 3
		if rng.Intn(8) == 0 {
			v = rng.Int63() - rng.Int63()
		}
		for i := 0; i < n; i++ {
			plain = append(plain, v)
		}
		vals, ends = append(vals, v), append(ends, int32(len(plain)))
	}
	rc := NewRunColumn(kind, vals, ends)
	if kind == KindTime {
		return rc, NewTimeColumn(plain)
	}
	return rc, NewInt64Column(plain)
}

// requireSameColumn asserts got is a plain column (unless shaped is
// set) of want's kind and values.
func requireSameColumn(t *testing.T, what string, want, got Column, shaped bool) {
	t.Helper()
	if _, isRun := got.(*RunColumn); isRun != shaped {
		t.Fatalf("%s: got %T, want shaped=%v", what, got, shaped)
	}
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: (%v, %d rows), want (%v, %d rows)", what, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := ValueAt(got, i), ValueAt(want, i); g != w {
			t.Fatalf("%s: row %d = %v, want %v", what, i, g, w)
		}
		if g, w := Int64At(got, i), Int64At(want, i); g != w {
			t.Fatalf("%s: Int64At(%d) = %v, want %v", what, i, g, w)
		}
	}
}

// randSel returns an ascending selection over n rows; sparse ones skip
// whole runs.
func randSel(rng *rand.Rand, n int) []int32 {
	sel := []int32{}
	keep := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		if rng.Intn(keep) == 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

func TestRunColumnMatchesPlainTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{0, 1, 2, 5, 100, BatchSize, BatchSize + 37}
	for iter := 0; iter < 300; iter++ {
		kind := []Kind{KindInt64, KindTime}[iter%2]
		n := sizes[rng.Intn(len(sizes))]
		rc, plain := randRunPair(rng, kind, n)
		requireSameColumn(t, "column", plain, rc, true)
		if got := Int64s(rc); len(got) != n {
			t.Fatalf("Int64s: %d values, want %d", len(got), n)
		}
		if rc.MemSize() != int64(rc.vals.Len())*12 {
			t.Fatalf("MemSize = %d for %d runs", rc.MemSize(), rc.vals.Len())
		}
		if z, w := ColumnZone(rc), ColumnZone(plain); z != w {
			t.Fatalf("ColumnZone = %+v, want %+v", z, w)
		}

		// Slice: every cut of a small column, random cuts of a big one.
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			s := rc.Slice(lo, hi)
			requireSameColumn(t, "slice", plain.Slice(lo, hi), s, true)
			if z, w := ColumnZone(s), ColumnZone(plain.Slice(lo, hi)); z != w {
				t.Fatalf("slice [%d:%d] zone = %+v, want %+v", lo, hi, z, w)
			}
		}

		// Gather takes any order; the builders and the coalescer take
		// ascending selections.
		idx := make([]int32, rng.Intn(2*n+1))
		for i := range idx {
			idx[i] = int32(rng.Intn(max(n, 1)))
		}
		if n == 0 {
			idx = idx[:0]
		}
		requireSameColumn(t, "gather", plain.Gather(idx), rc.Gather(idx), false)

		sel := randSel(rng, n)
		wb, gb := NewBuilder(kind, 0), NewBuilder(kind, 0)
		wb.AppendSel(plain, sel)
		gb.AppendSel(rc, sel)
		wb.AppendAll(plain)
		gb.AppendAll(rc)
		if n > 0 {
			wb.AppendFrom(plain, n/2)
			gb.AppendFrom(rc, n/2)
		}
		requireSameColumn(t, "builder", wb.Finish(), gb.Finish(), false)

		if n == 0 {
			continue
		}
		// Materialize, with and without a selection; the source batch is
		// shared table data and must keep its shape.
		src := NewBatch(rc, plain)
		m := src.Materialize()
		requireSameColumn(t, "materialize", plain, m.Cols[0], false)
		if _, still := src.Cols[0].(*RunColumn); !still || m.Cols[1] != plain {
			t.Fatal("Materialize touched the shared batch or copied a plain column")
		}
		if len(sel) > 0 {
			m = src.WithSel(sel).Materialize()
			requireSameColumn(t, "materialize sel", plain.Gather(sel), m.Cols[0], false)
		}

		// Coalescer: selection views over run batches come out plain.
		co := NewCoalescer([]Kind{kind, kind})
		out := NewRelation()
		var want []int64
		for k := 0; k < 3; k++ {
			s := randSel(rng, n)
			if len(s) == 0 {
				continue
			}
			for _, i := range s {
				want = append(want, Int64At(plain, int(i)))
			}
			co.Add(out, src.WithSel(s))
		}
		co.Flush(out)
		var got []int64
		for _, b := range out.Batches() {
			requireSameColumn(t, "coalesced", b.Cols[1], b.Cols[0], false)
			got = append(got, Int64s(b.Cols[0])...)
		}
		if len(got) != len(want) {
			t.Fatalf("coalescer: %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("coalescer: row %d = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

// chunkShaped builds a relation the way chunk access does — run, run,
// time, float, run per batch, zones seeded — and its plain twin through
// Append.
func chunkShaped(rng *rand.Rand, batches int) (shaped, plain *Relation) {
	var bs []*Batch
	var zones [][]Zone
	plain = NewRelation()
	t0 := int64(1262304000_000_000_000)
	for b := 0; b < batches; b++ {
		n := 1 + rng.Intn(300)
		ts, vals := make([]int64, n), make([]float64, n)
		for i := range ts {
			ts[i] = t0 + int64(i)*50_000_000
			vals[i] = rng.NormFloat64()
		}
		t0 = ts[n-1] + 1
		file, filePlain := randRunPair(rng, KindInt64, n)
		win, winPlain := randRunPair(rng, KindTime, n)
		val := NewFloat64Column(vals)
		bs = append(bs, NewBatch(file, NewTimeColumn(ts), val, win))
		zones = append(zones, []Zone{ColumnZone(file), {Min: ts[0], Max: ts[n-1], Ok: true}, ColumnZone(val), ColumnZone(win)})
		plain.Append(NewBatch(filePlain, NewTimeColumn(ts), NewFloat64Column(vals), winPlain))
	}
	return NewChunkRelation(bs, zones), plain
}

func TestChunkRelationKeepsShapesAndSeededZones(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shaped, plain := chunkShaped(rng, 5)
	if shaped.Rows() != plain.Rows() {
		t.Fatalf("rows = %d, want %d", shaped.Rows(), plain.Rows())
	}
	if shaped.MemSize() >= plain.MemSize()*2/3 {
		t.Fatalf("shaped relation is %d bytes against %d plain", shaped.MemSize(), plain.MemSize())
	}
	before := ZoneComputations()
	for bi, b := range shaped.Batches() {
		for ci := range b.Cols {
			if z, w := shaped.Zone(bi, ci), ColumnZone(plain.Batches()[bi].Cols[ci]); z != w {
				t.Fatalf("batch %d col %d seeded zone = %+v, want %+v", bi, ci, z, w)
			}
		}
	}
	if got := ZoneComputations(); got != before {
		t.Fatalf("reading seeded zones computed %d batch bounds", got-before)
	}
	// Flatten and Append both end in plain columns; the chunk keeps its
	// shapes.
	flat, want := shaped.Flatten(), plain.Flatten()
	for ci := range want.Cols {
		if ci == 2 {
			continue // floats: covered by the codec round trip below
		}
		requireSameColumn(t, "flatten", want.Cols[ci], flat.Cols[ci], false)
	}
	one := NewChunkRelation(shaped.Batches()[:1], [][]Zone{make([]Zone, 4)})
	requireSameColumn(t, "flatten one batch", plain.Batches()[0].Cols[0], one.Flatten().Cols[0], false)
	res := NewRelation()
	res.Append(shaped.Batches()[0])
	requireSameColumn(t, "append", plain.Batches()[0].Cols[3], res.Batches()[0].Cols[3], false)
	if _, ok := shaped.Batches()[0].Cols[0].(*RunColumn); !ok {
		t.Fatal("the chunk relation lost its shape")
	}
}

func TestSegCodecRunColumnsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 50; iter++ {
		shaped, plain := chunkShaped(rng, 1+rng.Intn(4))
		body, err := EncodeRelation(nil, shaped)
		if err != nil {
			t.Fatal(err)
		}
		plainBody, err := EncodeRelation(nil, plain)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > len(plainBody)+16*len(shaped.Batches()) {
			t.Fatalf("shaped body %d bytes, plain %d", len(body), len(plainBody))
		}
		before := ZoneComputations()
		got, err := DecodeRelation(body)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRelation(t, plain, got)
		for bi, b := range got.Batches() {
			for ci, c := range b.Cols {
				_, isRun := c.(*RunColumn)
				if _, wantRun := shaped.Batches()[bi].Cols[ci].(*RunColumn); isRun != wantRun {
					t.Fatalf("batch %d col %d decoded as %T", bi, ci, c)
				}
				if z, w := got.Zone(bi, ci), shaped.Zone(bi, ci); z != w {
					t.Fatalf("batch %d col %d zone = %+v, want %+v", bi, ci, z, w)
				}
			}
		}
		if ZoneComputations() != before {
			t.Fatal("decoded zones were recomputed, not seeded")
		}
	}
}

// TestSegCodecCorruptRunCount: a run count is checked against the rows
// and the bytes that are there before anything is allocated from it.
func TestSegCodecCorruptRunCount(t *testing.T) {
	var body []byte
	uv := func(v uint64) { body = binary.AppendUvarint(body, v) }
	uv(1)       // batches
	uv(1 << 24) // rows
	uv(1)       // columns
	body = append(body, segRun, 0, segInt64)
	uv(1 << 24) // runs
	body = append(body, bytes.Repeat([]byte{1}, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRelation(body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSegCorrupt) {
		t.Fatalf("err = %v, want ErrSegCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a corrupt run count allocated %d bytes", grew)
	}
	// Runs that do not add up to the rows, in either direction, and a
	// zero-length run.
	for _, lens := range [][]uint64{{2, 2}, {3, 3}, {5, 0}, {6}} {
		body = body[:0]
		uv(1)
		uv(5)
		uv(1)
		body = append(body, segRun, 0, segTime)
		uv(uint64(len(lens)))
		for range lens {
			body = binary.AppendVarint(body, 7)
		}
		for _, n := range lens {
			uv(n)
		}
		if _, err := DecodeRelation(body); !errors.Is(err, ErrSegCorrupt) {
			t.Fatalf("run lengths %v: err = %v, want ErrSegCorrupt", lens, err)
		}
	}
}

// FuzzDecodeRelation: a block body comes off a disk anyone can write
// to. Whatever the bytes, DecodeRelation returns ErrSegCorrupt or a
// relation that encodes and decodes back to itself — it never panics.
func FuzzDecodeRelation(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		shaped, plain := chunkShaped(rng, 1+i)
		for _, rel := range []*Relation{shaped, plain} {
			body, err := EncodeRelation(nil, rel)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
			for k := 0; k < 8; k++ {
				flipped := append([]byte(nil), body...)
				flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rel, err := DecodeRelation(body)
		if err != nil {
			if !errors.Is(err, ErrSegCorrupt) {
				t.Fatalf("err = %v, want ErrSegCorrupt", err)
			}
			return
		}
		again, err := EncodeRelation(nil, rel)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeRelation(again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		requireSameRelation(t, rel, back)
	})
}

// kindRunPair returns a run column of any kind, rows rows long with
// runs of one to five rows (a one-row run among them), and its plain
// twin.
func kindRunPair(rng *rand.Rand, kind Kind, rows int) (*RunColumn, Column) {
	value := func() any {
		switch kind {
		case KindFloat64:
			return float64(rng.Intn(7)) / 4
		case KindBool:
			return rng.Intn(2) == 0
		case KindString:
			return []string{"FIAM", "ISK", "AQU", "CERA"}[rng.Intn(4)]
		default:
			return rng.Int63n(7) - 3
		}
	}
	vals, plain := NewBuilder(kind, 0), NewBuilder(kind, rows)
	var ends []int32
	for plain.Len() < rows {
		n := min(1+rng.Intn(5), rows-plain.Len())
		if len(ends) == 0 {
			n = 1
		}
		v := value()
		vals.AppendAny(v)
		for i := 0; i < n; i++ {
			plain.AppendAny(v)
		}
		ends = append(ends, int32(plain.Len()))
	}
	return newRuns(vals.Finish(), ends), plain.Finish()
}

// requireSameValues asserts got is a plain column of want's kind and
// values.
func requireSameValues(t *testing.T, what string, want, got Column) {
	t.Helper()
	if _, isRun := got.(*RunColumn); isRun {
		t.Fatalf("%s: got a run column", what)
	}
	requireSameRows(t, what, want, got)
}

// requireSameRows asserts got, of any shape, has want's kind and values.
func requireSameRows(t *testing.T, what string, want, got Column) {
	t.Helper()
	if got.Kind() != want.Kind() || got.Len() != want.Len() {
		t.Fatalf("%s: (%v, %d rows), want (%v, %d rows)", what, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := ValueAt(got, i), ValueAt(want, i); g != w {
			t.Fatalf("%s: row %d = %v, want %v", what, i, g, w)
		}
	}
}

// TestRunColumnEveryKind: a run column of each kind reads and copies
// exactly like its plain twin — through Slice (cuts inside runs
// included), Gather, Batch.Materialize with and without a selection,
// Relation.Append and every builder's AppendFrom, AppendSel and
// AppendAll.
func TestRunColumnEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, kind := range []Kind{KindString, KindFloat64, KindBool, KindInt64, KindTime} {
		for _, rows := range []int{1, 2, 9, 300} {
			rc, plain := kindRunPair(rng, kind, rows)
			what := func(op string) string { return fmt.Sprintf("%v/%d rows: %s", kind, rows, op) }
			requireSameRows(t, what("ValueAt"), plain, rc)
			if rows > 2 {
				// The first run is one row long, so [1, rows-1) cuts into
				// the runs at both ends whenever they are longer.
				s := rc.Slice(1, rows-1)
				if _, ok := s.(*RunColumn); !ok {
					t.Fatalf("%s: slice lost the shape", what("slice"))
				}
				requireSameRows(t, what("slice"), plain.Slice(1, rows-1), s)
				requireSameValues(t, what("slice gather"), plain.Slice(1, rows-1), s.Gather(ascending(rows-2)))
			}
			idx := make([]int32, 2*rows)
			for i := range idx {
				idx[i] = int32(rng.Intn(rows))
			}
			requireSameValues(t, what("gather"), plain.Gather(idx), rc.Gather(idx))
			sel := randSel(rng, rows)

			m := NewBatch(rc).Materialize()
			requireSameValues(t, what("materialize"), plain, m.Cols[0])
			if len(sel) > 0 {
				m = NewBatch(rc).WithSel(sel).Materialize()
				requireSameValues(t, what("materialize sel"), plain.Gather(sel), m.Cols[0])
			}
			rel := NewRelation()
			rel.Append(NewBatch(rc, rc))
			requireSameValues(t, what("append"), plain, rel.Batches()[0].Cols[1])
			if rel.Batches()[0].Cols[0] != rel.Batches()[0].Cols[1] {
				t.Fatalf("%s: a column occurring twice was expanded twice", what("append"))
			}

			wb, gb := NewBuilder(kind, 0), NewBuilder(kind, 0)
			wb.AppendSel(plain, sel)
			gb.AppendSel(rc, sel)
			wb.AppendAll(plain)
			gb.AppendAll(rc)
			wb.AppendSel(plain, nil)
			gb.AppendSel(rc, nil)
			wb.AppendFrom(plain, rows/2)
			gb.AppendFrom(rc, rows/2)
			requireSameValues(t, what("builder"), wb.Finish(), gb.Finish())
		}
	}
}

// ascending is the identity selection of n rows.
func ascending(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestGatherRunsPooled: run k of a GatherRuns column holds the source
// row idx[k] over its rows, strings share the dictionary, and the ends
// are the column's own (the caller's vector may be reused at once).
// (The name is from when GatherRuns drew from a pool.)
func TestGatherRunsPooled(t *testing.T) {
	src := NewFloat64Column([]float64{10, 20, 30})
	tags := NewStringColumn([]string{"a", "b", "c"})
	ends := []int32{2, 3, 7}
	c := GatherRuns(src, []int32{2, 0, 1}, ends)
	ends[0] = 1
	if got := Float64s(c); len(got) != 7 || got[0] != 30 || got[1] != 30 || got[2] != 10 || got[6] != 20 {
		t.Fatalf("float runs: %v", got)
	}
	c = GatherRuns(tags, []int32{2, 1}, []int32{4, 6})
	if c.Kind() != KindString || c.Len() != 6 || StringAt(c, 3) != "c" || StringAt(c, 4) != "b" {
		t.Fatalf("string runs: %v rows, %q %q", c.Len(), StringAt(c, 3), StringAt(c, 4))
	}
	if sc := Strings(c); &sc.Dict()[0] != &tags.Dict()[0] {
		t.Fatal("string runs copied the dictionary")
	}
}
