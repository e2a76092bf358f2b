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
	f := &mseed.File{}
	for id, n := range lens {
		samples := make([]int32, n)
		for i := range samples {
			samples[i] = int32(rng.Intn(1<<20) - 1<<19)
		}
		f.Segments = append(f.Segments, mseed.Segment{
			Header:  mseed.SegmentHeader{ID: int32(id + 3), StartTime: start, SampleRate: rate, SampleCount: int32(n)},
			Samples: samples,
		})
		start += int64(float64(n)/rate*1e9) + int64(41*time.Minute)
	}
	return f
}

// TestChunkToRelationMatchesPerRowLoop pins chunk access to the oracle:
// the same batches, and after Flatten the same five plain columns, bit
// for bit — non-integer sample periods, segments longer than a batch,
// windows crossed mid-batch, pre-epoch timestamps — with zone maps that
// are seeded, equal to the bounds of the expanded columns, and never
// computed.
func TestChunkToRelationMatchesPerRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hour := int64(time.Hour)
	chunks := map[string]*mseed.File{
		"bench shape":         testChunk(rng, 1262304000e9, 20, 3334, 3333, 3333, 2000),
		"non-integer period":  testChunk(rng, 1262304000e9+12345, 3, 500, 7),
		"irrational period":   testChunk(rng, 1262304000e9, 100.0/7, 4096, 4097, 1),
		"longer than a batch": testChunk(rng, 1262304000e9+59*hour/60, 40, 3*storage.BatchSize+5),
		"many windows":        testChunk(rng, 1262304000e9, 0.01, 700),
		"before the epoch":    testChunk(rng, -3*hour-17, 20, 5000, 100),
		"empty":               {},
		"empty segment":       testChunk(rng, 0, 20, 0, 10),
	}
	for name, f := range chunks {
		want := chunkToRelationPerRow(7, f)
		before := storage.ZoneComputations()
		got := ChunkToRelation(7, f)
		if got.Rows() != want.Rows() || len(got.Batches()) != len(want.Batches()) {
			t.Fatalf("%s: %d rows in %d batches, want %d in %d", name,
				got.Rows(), len(got.Batches()), want.Rows(), len(want.Batches()))
		}
		for bi, wb := range want.Batches() {
			gb := got.Batches()[bi]
			for ci, wc := range wb.Cols {
				gc := gb.Cols[ci]
				if _, _, shaped := storage.Runs(gc); shaped != (ci == 0 || ci == 1 || ci == 4) {
					t.Fatalf("%s: batch %d column %d is %T", name, bi, ci, gc)
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
			continue
		}
		if 2*got.MemSize() > want.MemSize() {
			t.Fatalf("%s: %d resident bytes against %d plain", name, got.MemSize(), want.MemSize())
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
	}
}

var sinkRel *storage.Relation

// BenchmarkChunkToRelation is the second half of a cold chunk access,
// on the benchmark's chunk shape (12 segments, 40 000 samples).
func BenchmarkChunkToRelation(b *testing.B) {
	lens := make([]int, 12)
	for i := range lens {
		lens[i] = 40000 / 12
	}
	f := testChunk(rand.New(rand.NewSource(7)), 1262304000e9, 20, lens...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRel = ChunkToRelation(5, f)
	}
}
