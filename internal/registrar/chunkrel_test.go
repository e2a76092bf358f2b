package registrar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// chunkToRelationPerRow is ChunkToRelation as it was before column
// shapes: five makes per segment and every value of every column
// written per row. Kept as the oracle.
func chunkToRelationPerRow(chunkID int64, f *mseed.File) *storage.Relation {
	rel := storage.NewRelation()
	for _, seg := range f.Segments {
		n := len(seg.Samples)
		ids := make([]int64, n)
		segs := make([]int64, n)
		ts := make([]int64, n)
		vals := make([]float64, n)
		wins := make([]int64, n)
		period := float64(time.Second) / seg.Header.SampleRate
		for i, v := range seg.Samples {
			ids[i] = chunkID
			segs[i] = int64(seg.Header.ID)
			ts[i] = seg.Header.StartTime + int64(float64(i)*period)
			vals[i] = float64(v)
			wins[i] = seismic.WindowStart(ts[i])
		}
		for lo := 0; lo < n; lo += storage.BatchSize {
			hi := min(lo+storage.BatchSize, n)
			rel.Append(storage.NewBatch(
				storage.NewInt64Column(ids[lo:hi]),
				storage.NewInt64Column(segs[lo:hi]),
				storage.NewTimeColumn(ts[lo:hi]),
				storage.NewFloat64Column(vals[lo:hi]),
				storage.NewTimeColumn(wins[lo:hi]),
			))
		}
	}
	return rel
}

// testChunk builds a decoded chunk of the given segment lengths at rate
// Hz, starting start ns after the epoch with an hour-crossing gap
// between segments.
func testChunk(rng *rand.Rand, start int64, rate float64, lens ...int) *mseed.File {
	return buildChunk(start, rate, lens, func() int32 { return int32(rng.Intn(1<<20) - 1<<19) })
}

func buildChunk(start int64, rate float64, lens []int, sample func() int32) *mseed.File {
	f := &mseed.File{}
	for id, n := range lens {
		samples := make([]int32, n)
		for i := range samples {
			samples[i] = sample()
		}
		f.Segments = append(f.Segments, mseed.Segment{
			Header:  mseed.SegmentHeader{ID: int32(id + 3), StartTime: start, SampleRate: rate, SampleCount: int32(n)},
			Samples: samples,
		})
		start += int64(float64(n)/rate*1e9) + int64(41*time.Minute)
	}
	return f
}

type chunkSpec struct {
	start int64
	rate  float64
	lens  []int
}

// oracleSpecs are the chunks TestChunkToRelationMatchesPerRowLoop pins
// and FuzzChunkToRelation starts from.
func oracleSpecs() map[string]chunkSpec {
	const (
		hour  = int64(time.Hour)
		epoch = int64(1262304000e9) // 2010-01-01, on a window boundary
		batch = storage.BatchSize
	)
	return map[string]chunkSpec{
		"bench shape":         {epoch, 20, []int{3334, 3333, 3333, 2000}},
		"non-integer period":  {epoch + 12345, 3, []int{500, 7}},
		"irrational period":   {epoch, 100.0 / 7, []int{4096, 4097, 1}},
		"longer than a batch": {epoch + 59*hour/60, 40, []int{3*batch + 5}},
		"many windows":        {epoch, 0.01, []int{700}},
		"before the epoch":    {-3*hour - 17, 20, []int{5000, 100}},
		"empty":               {},
		"empty segment":       {0, 20, []int{0, 10}},
		"40 Hz":               {epoch + 7, 40, []int{2*batch + 9}},
		"50 Hz":               {epoch - hour/2, 50, []int{3 * batch}},
		"100 Hz":              {epoch - 41, 100, []int{batch + 1, batch}},
		"200 Hz":              {epoch - 3*hour/4, 200, []int{2 * batch, 17}},
		"1 GHz":               {epoch - 5000, 1e9, []int{2*batch + 3}},
		"above 1 GHz":         {epoch - 1, 3e9, []int{batch + 700}},
		// The second batch's first row is exactly a window's start.
		"batch on a boundary": {epoch - int64(batch)*int64(time.Second/20), 20, []int{2 * batch}},
		// In the last window below MaxInt64 the window's end wraps: the
		// guard sends these through the per-row branch.
		"near MaxInt64":      {math.MaxInt64 - hour + 17, 20, []int{batch + 5}},
		"in the last window": {math.MaxInt64 - hour/2, 20, []int{batch + 5}},
		// Below the first window boundary past MinInt64 WindowStart wraps,
		// and the searched branch must agree with it.
		"near MinInt64":                  {math.MinInt64 + 17, 20, []int{batch + 5}},
		"across MinInt64's first window": {math.MinInt64 + 2836854775808 - 100*int64(time.Second), 20, []int{batch + 5}},
		// The last row exactly at MaxInt64 - WindowDuration, and 1 ns past.
		"at the guard":   {math.MaxInt64 - hour - int64(batch+4)*int64(time.Second/20), 20, []int{batch + 5}},
		"past the guard": {math.MaxInt64 - hour - int64(batch+4)*int64(time.Second/20) + 1, 20, []int{batch + 5}},
		// Runs off MaxInt64 and wraps to MinInt64 mid-segment, from a
		// start in the last window and from one well below it.
		"span wraps":              {math.MaxInt64 - 10*int64(time.Second), 20, []int{2 * batch}},
		"span wraps from further": {math.MaxInt64 - 2*hour, 20, []int{batch, 2 * batch}},
		// 1 µHz, the lowest wire-format rate: offsets pass 2^63 ns, where
		// their conversion to int64 is implementation-defined.
		"span past 2^63":          {0, 1e-6, []int{10000}},
		"span past 2^63 from far": {-9e18, 1e-6, []int{10000}},
		// Timestamps that fall, within one window.
		"negative rate": {epoch + hour/2, -20, []int{100}},
	}
}

// requireMatchesPerRow pins ChunkToRelation on f to the oracle: the
// same batches, and after Flatten the same five plain columns, bit for
// bit, with zone maps that are seeded, equal to the bounds of the
// expanded columns, and never computed.
func requireMatchesPerRow(t *testing.T, name string, f *mseed.File) (got, want *storage.Relation) {
	t.Helper()
	want = chunkToRelationPerRow(7, f)
	before := storage.ZoneComputations()
	got = ChunkToRelation(7, f)
	if got.Rows() != want.Rows() || len(got.Batches()) != len(want.Batches()) {
		t.Fatalf("%s: %d rows in %d batches, want %d in %d", name,
			got.Rows(), len(got.Batches()), want.Rows(), len(want.Batches()))
	}
	for bi, wb := range want.Batches() {
		gb := got.Batches()[bi]
		for ci, wc := range wb.Cols {
			gc := gb.Cols[ci]
			vals, _, shaped := storage.Runs(gc)
			if shaped != (ci == 0 || ci == 1 || ci == 4) {
				t.Fatalf("%s: batch %d column %d is %T", name, bi, ci, gc)
			}
			// Runs are maximal: one per change of value in the oracle.
			if shaped && len(vals) != 1+valueChanges(wc) {
				t.Fatalf("%s: batch %d column %d has %d runs, want %d", name, bi, ci, len(vals), 1+valueChanges(wc))
			}
			if gc.Kind() != wc.Kind() || gc.Len() != wc.Len() {
				t.Fatalf("%s: batch %d column %d is (%v, %d rows), want (%v, %d rows)", name, bi, ci,
					gc.Kind(), gc.Len(), wc.Kind(), wc.Len())
			}
			if z, w := got.Zone(bi, ci), storage.ColumnZone(wc); z != w {
				t.Fatalf("%s: batch %d column %d seeded zone %+v, want %+v", name, bi, ci, z, w)
			}
		}
	}
	if n := storage.ZoneComputations() - before; n != 0 {
		t.Fatalf("%s: a fresh chunk's zones cost %d batch computations", name, n)
	}
	if got.Rows() == 0 {
		return got, want
	}
	gf, wf := got.Flatten(), want.Flatten()
	for ci, wc := range wf.Cols {
		gc := gf.Cols[ci]
		if fmt.Sprintf("%T", gc) != fmt.Sprintf("%T", wc) {
			t.Fatalf("%s: flattened column %d is %T, want %T", name, ci, gc, wc)
		}
		for i := 0; i < wf.Len(); i++ {
			g, w := storage.ValueAt(gc, i), storage.ValueAt(wc, i)
			if fw, ok := w.(float64); ok {
				g, w = math.Float64bits(g.(float64)), math.Float64bits(fw)
			}
			if g != w {
				t.Fatalf("%s: column %d row %d = %v, want %v", name, ci, i, g, w)
			}
		}
	}
	return got, want
}

// valueChanges counts the rows of an int64 or timestamp column whose
// value differs from the row before.
func valueChanges(c storage.Column) int {
	n := 0
	for i := 1; i < c.Len(); i++ {
		if storage.Int64At(c, i) != storage.Int64At(c, i-1) {
			n++
		}
	}
	return n
}

// TestChunkToRelationMatchesPerRowLoop pins chunk access to the oracle
// on non-integer and sub-nanosecond sample periods, segments longer
// than a batch, windows crossed mid-batch and at a batch's first row,
// pre-epoch timestamps, and segments at, inside and across the ends of
// int64 — both sides of the guard that lets zones come from a batch's
// ends and windows from a search.
func TestChunkToRelationMatchesPerRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, c := range oracleSpecs() {
		got, want := requireMatchesPerRow(t, name, testChunk(rng, c.start, c.rate, c.lens...))
		// Runs save memory where a window holds more than a few rows.
		manyPerWindow := c.rate*seismic.WindowDuration.Seconds() > 10
		if got.Rows() > 0 && manyPerWindow && 2*got.MemSize() > want.MemSize() {
			t.Fatalf("%s: %d resident bytes against %d plain", name, got.MemSize(), want.MemSize())
		}
	}
}

// FuzzChunkToRelation: a segment header comes from a chunk file anyone
// can write. Whatever its start time and wire-format sample rate
// (micro-Hz, as mseed parses it), ChunkToRelation matches the per-row
// oracle bit for bit, seeded zones included.
func FuzzChunkToRelation(f *testing.F) {
	for _, c := range oracleSpecs() {
		var l [4]uint16
		for i, n := range c.lens {
			l[i] = uint16(n)
		}
		f.Add(c.start, uint64(c.rate*1e6), l[0], l[1], l[2], l[3], []byte{1, 0x80, 0x7f, 3})
	}
	f.Fuzz(func(t *testing.T, start int64, wireRate uint64, l0, l1, l2, l3 uint16, samples []byte) {
		var lens []int
		for _, l := range []uint16{l0, l1, l2, l3} {
			lens = append(lens, int(l)%(3*storage.BatchSize+1))
		}
		k := 0
		sample := func() int32 {
			if len(samples) == 0 {
				return 0
			}
			k++
			return int32(int8(samples[k%len(samples)])) << (k % 24)
		}
		requireMatchesPerRow(t, "fuzz", buildChunk(start, float64(wireRate)/1e6, lens, sample))
	})
}

var sinkRel *storage.Relation

// BenchmarkChunkToRelation is the second half of a cold chunk access,
// on the benchmark's chunk shape (12 segments, 40 000 samples): into
// fresh memory, and into a recycled arena as the chunk store loads.
func BenchmarkChunkToRelation(b *testing.B) {
	lens := make([]int, 12)
	for i := range lens {
		lens[i] = 40000 / 12
	}
	f := testChunk(rand.New(rand.NewSource(7)), 1262304000e9, 20, lens...)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRel = ChunkToRelation(5, f)
		}
	})
	b.Run("recycled", func(b *testing.B) {
		arena := storage.Arena{Ints: make([]int64, f.SampleCount()), Floats: make([]float64, f.SampleCount())}
		mem := &storage.ChunkMem{NewArena: func(ints, floats int) storage.Arena {
			return storage.Arena{Ints: arena.Ints[:ints], Floats: arena.Floats[:floats]}
		}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRel = ChunkToRelationInto(5, f, mem)
		}
	})
}
