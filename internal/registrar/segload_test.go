package registrar

import (
	"context"
	"os"
	"slices"
	"testing"

	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// segRepo generates chunks of the service benchmark's shape: 40 000
// samples in 1 to 23 segments. It returns a chunk with at least three.
func segRepo(t testing.TB) (*Repository, seisgen.FileInfo, int64) {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = 40000
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := DiscoverRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, uri := range repo.Uris {
		for _, f := range man.Files {
			if f.URI == uri && len(f.Segments) >= 3 {
				return repo, f, int64(id)
			}
		}
	}
	t.Fatal("no chunk of three segments")
	return nil, seisgen.FileInfo{}, 0
}

// TestLoadSegments: a load of some segments of a chunk holds exactly
// their rows, bit for bit as in a whole load, in a whole load's batch
// layout — the other segments' batches empty — and reports them as its
// coverage, unless they are every segment of the chunk.
func TestLoadSegments(t *testing.T) {
	repo, f, id := segRepo(t)
	ctx := context.Background()
	whole, cov, err := LoadChunkFromSource(ctx, repo, seismic.TableD, id, nil, nil)
	if err != nil || cov != nil {
		t.Fatalf("whole load: coverage %v, %v", cov, err)
	}
	seg := f.Segments[1]
	part, cov, err := LoadChunkFromSource(ctx, repo, seismic.TableD, id, []int64{int64(seg.ID), 999}, nil)
	if err != nil || !slices.Equal(cov, []int64{int64(seg.ID), 999}) {
		t.Fatalf("one-segment load: coverage %v, %v", cov, err)
	}
	if part.Rows() != int(seg.SampleCount) {
		t.Fatalf("one-segment load holds %d rows, want %d", part.Rows(), seg.SampleCount)
	}
	wb, pb := whole.Batches(), part.Batches()
	if len(pb) != len(wb) {
		t.Fatalf("one-segment load has %d batches, a whole load %d", len(pb), len(wb))
	}
	d, _ := seismic.NewCatalog().Table(seismic.TableD)
	segCol := d.Schema.IndexOf("segment_id")
	for bi, b := range wb {
		if storage.ValueAt(b.Cols[segCol], 0) != int64(seg.ID) {
			if pb[bi].Len() != 0 {
				t.Fatalf("batch %d of another segment holds %d rows", bi, pb[bi].Len())
			}
			continue
		}
		for ci, c := range b.Cols {
			for r := 0; r < b.Len(); r++ {
				if storage.ValueAt(c, r) != storage.ValueAt(pb[bi].Cols[ci], r) {
					t.Fatalf("batch %d column %d row %d differs from the whole load", bi, ci, r)
				}
			}
		}
	}
	var all []int64
	for _, s := range f.Segments {
		all = append(all, int64(s.ID))
	}
	slices.Sort(all)
	if rel, cov, err := LoadChunkFromSource(ctx, repo, seismic.TableD, id, all, nil); err != nil || cov != nil || rel.Rows() != whole.Rows() {
		t.Fatalf("a load naming every segment: coverage %v, %v", cov, err)
	}
}

// TestSegmentLoadChecksumsEveryPayload: a bad checksum in a segment the
// load does not decode still fails it, as it fails a whole load.
func TestSegmentLoadChecksumsEveryPayload(t *testing.T) {
	repo, f, id := segRepo(t)
	raw, err := os.ReadFile(repo.Uris[id])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // the last segment's payload
	if err := os.WriteFile(repo.Uris[id], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	first := []int64{int64(f.Segments[0].ID)}
	if _, _, err := LoadChunkFromSource(context.Background(), repo, seismic.TableD, id, first, nil); err == nil {
		t.Fatal("a chunk with a corrupt unselected segment loaded")
	}
}

// BenchmarkLoadSegments is a chunk-store miss on the benchmark's chunk
// shape, into recycled memory: the whole chunk, and the one segment a
// narrow probe selects.
func BenchmarkLoadSegments(b *testing.B) {
	repo, f, id := segRepo(b)
	var arena storage.Arena
	mem := &storage.ChunkMem{NewArena: func(ints, floats int) storage.Arena {
		if cap(arena.Ints) < ints || cap(arena.Floats) < floats {
			arena = storage.Arena{Ints: make([]int64, ints), Floats: make([]float64, floats)}
		}
		return storage.Arena{Ints: arena.Ints[:ints], Floats: arena.Floats[:floats]}
	}}
	for _, c := range []struct {
		name string
		segs []int64
	}{{"whole", nil}, {"one-segment", []int64{int64(f.Segments[len(f.Segments)/2].ID)}}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rel, _, err := LoadChunkFromSource(context.Background(), repo, seismic.TableD, id, c.segs, mem)
				if err != nil {
					b.Fatal(err)
				}
				sinkRel = rel
			}
		})
	}
}
