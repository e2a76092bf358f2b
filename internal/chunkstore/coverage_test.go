package chunkstore

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sommelier/internal/cache"
	"sommelier/internal/storage"
)

// segLoader serves chunks of four 10-row segments, each row holding its
// segment's ID, loading only the segments asked for. It counts its
// loads and records the last request; gate, when set, holds every load
// until closed.
type segLoader struct {
	calls atomic.Int32
	mu    sync.Mutex
	last  []int64
	gate  chan struct{}
}

var allSegs = []int64{0, 1, 2, 3}

func (l *segLoader) LoadChunkInto(_ context.Context, _ string, _ int64, segs []int64, _ *storage.ChunkMem) (*storage.Relation, []int64, error) {
	l.calls.Add(1)
	l.mu.Lock()
	l.last = segs
	l.mu.Unlock()
	if l.gate != nil {
		<-l.gate
	}
	var batches []*storage.Batch
	for _, seg := range allSegs {
		if cache.Covers(segs, []int64{seg}) {
			vals := make([]float64, 10)
			for i := range vals {
				vals[i] = float64(seg)
			}
			batches = append(batches, storage.NewBatch(storage.NewFloat64Column(vals)))
		}
	}
	if cache.Covers(segs, allSegs) {
		segs = nil
	}
	return storage.NewChunkRelation(batches, make([][]storage.Zone, len(batches))), segs, nil
}

func (*segLoader) AllChunkIDs(string) []int64 { return []int64{1, 2} }

// segsOf lists the segments a handle's relation holds rows of.
func segsOf(h Handle) []int64 {
	var out []int64
	for _, b := range h.Rel().Batches() {
		out = append(out, int64(storage.Float64s(b.Cols[0])[0]))
	}
	return out
}

// holds reports whether a handle holds the rows of every segment segs
// names (nil: all four).
func holds(h Handle, segs []int64) bool {
	if segs == nil {
		segs = allSegs
	}
	return cache.Covers(segsOf(h), segs)
}

func acquireSegs(t *testing.T, s *Store, id int64, segs []int64) Handle {
	t.Helper()
	h, err := s.Acquire(context.Background(), id, segs)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(h, segs) {
		t.Fatalf("acquire %v: the handle holds %v", segs, segsOf(h))
	}
	return h
}

// TestAcquireWidensCoverage: a request the resident entry does not
// cover loads the union, which replaces the entry at its new size;
// requests it covers are hits, handles on the old entry stay valid.
func TestAcquireWidensCoverage(t *testing.T) {
	l := &segLoader{}
	s := newStore(Config{Loader: l, CacheBytes: 1 << 20})
	h1 := acquireSegs(t, s, 1, []int64{2})
	if !h1.Loaded || !slices.Equal(segsOf(h1), []int64{2}) {
		t.Fatalf("first load: %+v holds %v", h1, segsOf(h1))
	}
	if h, ok := s.TryAcquire(1, []int64{2}); !ok {
		t.Fatal("a covered request missed")
	} else {
		h.Release()
	}
	for _, segs := range [][]int64{{1}, nil} {
		if _, ok := s.TryAcquire(1, segs); ok {
			t.Fatalf("request %v hit an entry holding {2}", segs)
		}
	}
	if st := s.Stats(); st.Partial != 1 || st.Topups != 0 {
		t.Fatalf("stats = %+v", st)
	}
	h2 := acquireSegs(t, s, 1, []int64{0})
	if !h2.Loaded || !slices.Equal(segsOf(h2), []int64{0, 2}) || !slices.Equal(l.last, []int64{0, 2}) {
		t.Fatalf("top-up: %+v holds %v, loaded %v", h2, segsOf(h2), l.last)
	}
	h3 := acquireSegs(t, s, 1, nil)
	if l.last != nil || !h3.Loaded {
		t.Fatalf("whole top-up loaded %v", l.last)
	}
	h4 := acquireSegs(t, s, 1, []int64{3})
	if h4.Loaded || l.calls.Load() != 3 {
		t.Fatalf("a request the whole entry covers loaded: %+v, %d calls", h4, l.calls.Load())
	}
	st := s.Stats()
	if st.Resident != 1 || st.Partial != 0 || st.Topups != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if used := s.CacheStats().BytesUsed; used != st.ResidentBytes {
		t.Fatalf("recycler charges %d B for %d B resident", used, st.ResidentBytes)
	}
	if !slices.Equal(segsOf(h1), []int64{2}) {
		t.Fatal("a handle on a replaced entry changed")
	}
	ReleaseAll([]Handle{h1, h2, h3, h4})
	if st := s.Stats(); st.Pinned != 0 || st.Resident != 1 {
		t.Fatalf("after release: %+v", st)
	}
}

// TestConcurrentNarrowWide: narrow and wide requests for one chunk
// arriving while its load runs all get handles covering them, for two
// loads at most: whatever the first flight leaves uncovered, the next
// loads all of.
func TestConcurrentNarrowWide(t *testing.T) {
	for round := 0; round < 20; round++ {
		l := &segLoader{gate: make(chan struct{})}
		s := newStore(Config{Loader: l, CacheBytes: 1 << 20})
		reqs := [][]int64{{0}, {1}, nil, {2}, {1, 3}, {0}}
		hs := make([]Handle, len(reqs))
		var wg sync.WaitGroup
		for i, segs := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, err := s.Acquire(context.Background(), 1, segs)
				if err != nil {
					t.Error(err)
					return
				}
				hs[i] = h
			}()
		}
		// Open the gate once every request has joined the first flight.
		for {
			s.mu.Lock()
			f := s.flights[1]
			joined := f != nil && f.waiters == len(reqs)-1
			s.mu.Unlock()
			if joined {
				break
			}
			runtime.Gosched()
		}
		close(l.gate)
		wg.Wait()
		for i, segs := range reqs {
			if !holds(hs[i], segs) {
				t.Fatalf("request %v got a handle holding %v", segs, segsOf(hs[i]))
			}
		}
		if n := l.calls.Load(); n > 2 {
			t.Fatalf("%d loads for one narrow and wide burst", n)
		}
		ReleaseAll(hs)
	}
}

// TestPromoteCoverage: a block promotes only the requests it covers; an
// uncovered one loads the union of the block's coverage and the
// request from the archive, and a partial entry spilled and promoted
// keeps its coverage.
func TestPromoteCoverage(t *testing.T) {
	dt, err := cache.OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	l := &segLoader{}
	// Room for one one-segment chunk, not two.
	s := newStore(Config{Loader: l, CacheBytes: 100, Disk: dt})
	defer requireNoHandles(t, s)
	acquireSegs(t, s, 1, []int64{2}).Release()
	acquireSegs(t, s, 2, []int64{0}).Release() // evicts 1: a spill of {2}
	dt.WaitIdle()
	h := acquireSegs(t, s, 1, []int64{2})
	if !h.Promoted || l.calls.Load() != 2 {
		t.Fatalf("covered request: %+v after %d loads", h, l.calls.Load())
	}
	h.Release()
	if st := s.Stats(); st.Partial != 1 {
		t.Fatalf("a promoted partial block is not a partial entry: %+v", st)
	}
	s.Clear() // spills 1 again: redundant
	dt.WaitIdle()
	h = acquireSegs(t, s, 1, []int64{1})
	if h.Promoted || !slices.Equal(l.last, []int64{1, 2}) || !slices.Equal(segsOf(h), []int64{1, 2}) {
		t.Fatalf("uncovered request: %+v loaded %v, holds %v", h, l.last, segsOf(h))
	}
	h.Release()
}

// arenaSegLoader is segLoader writing into the store's arenas: each row
// of segment seg of chunk id holds id*10+seg, so a handle whose arena
// went to another load while it still reads shows the wrong values.
type arenaSegLoader struct{}

func (arenaSegLoader) LoadChunkInto(_ context.Context, _ string, id int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	var held []int64
	for _, seg := range allSegs {
		if cache.Covers(segs, []int64{seg}) {
			held = append(held, seg)
		}
	}
	a := mem.TakeArena(0, 10*len(held))
	batches := make([]*storage.Batch, len(held))
	for i, seg := range held {
		vals := a.Floats[10*i : 10*i+10]
		for j := range vals {
			vals[j] = float64(id*10 + seg)
		}
		batches[i] = storage.NewBatch(storage.NewFloat64Column(vals))
	}
	if len(held) == len(allSegs) {
		held = nil
	}
	return storage.NewChunkRelation(batches, make([][]storage.Zone, len(batches))), held, nil
}

func (arenaSegLoader) AllChunkIDs(string) []int64 { return []int64{0, 1, 2, 3} }

// sizeOf is the charge of chunk 0 holding the segments segs names.
func sizeOf(t *testing.T, segs []int64) int64 {
	h := mustAcquireSegs(t, newStore(Config{Loader: arenaSegLoader{}, CacheBytes: 1 << 20}), 0, segs)
	defer h.Release()
	return h.c.bytes
}

func mustAcquireSegs(t *testing.T, s *Store, id int64, segs []int64) Handle {
	t.Helper()
	h, err := s.Acquire(context.Background(), id, segs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOversizedTopUpKeepsEntry: a top-up larger than the whole cache
// is transient and leaves the entry it would have widened resident.
func TestOversizedTopUpKeepsEntry(t *testing.T) {
	s := newStore(Config{Loader: arenaSegLoader{}, CacheBytes: sizeOf(t, []int64{0, 1})})
	mustAcquireSegs(t, s, 1, []int64{0}).Release()
	h := mustAcquireSegs(t, s, 1, nil)
	if !h.Loaded || len(h.Rel().Batches()) != 4 {
		t.Fatalf("whole top-up: %+v", h)
	}
	h.Release()
	hit, ok := s.TryAcquire(1, []int64{0})
	if !ok {
		t.Fatal("the narrow entry was dropped")
	}
	hit.Release()
	if st := s.Stats(); st.Resident != 1 || st.Partial != 1 || st.Topups != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTopUpUnderEviction: narrow and whole top-ups of one chunk race
// admissions of others on a cache smaller than one whole chunk, so a
// top-up's replacement of its entry interleaves with evictions — of the
// entry it replaces among them — and whole top-ups end transient. One
// top-up evicts another chunk before the race starts. No
// handle's arena is reused while it reads, the store and its recycler
// agree on what is resident, and an idle resident chunk holds only its
// residency's reference.
func TestTopUpUnderEviction(t *testing.T) {
	p1, p2, whole := sizeOf(t, []int64{0}), sizeOf(t, []int64{0, 1}), sizeOf(t, nil)
	// Room for one chunk's two segments and another's one, not for
	// three and one, and never for a whole chunk.
	capacity := p2 + p1 + p1/2
	if whole <= capacity {
		t.Fatalf("sizes %d/%d/%d leave no room for the race", p1, p2, whole)
	}
	dt, err := cache.OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	s := newStore(Config{Loader: arenaSegLoader{}, CacheBytes: capacity, Disk: dt})
	// One top-up under eviction happens before the race, whatever the
	// scheduling: chunk 2's two segments and chunk 1's first fill the
	// cache, and topping chunk 1 up to two segments evicts chunk 2.
	for _, r := range []struct {
		id   int64
		segs []int64
	}{{2, []int64{0, 1}}, {1, []int64{0}}, {1, []int64{0, 1}}} {
		mustAcquireSegs(t, s, r.id, r.segs).Release()
	}
	if st, cst := s.Stats(), s.CacheStats(); st.Topups != 1 || cst.Evictions == 0 {
		t.Fatalf("no top-up under eviction before the race: %+v, %+v", st, cst)
	}
	reqs := [][]int64{{0}, {1}, {0, 1}, {2}, nil, {1, 3}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type held struct {
				id int64
				h  Handle
			}
			var hs []held
			defer func() {
				for _, x := range hs {
					x.h.Release()
				}
			}()
			for i := 0; i < 150; i++ {
				// Goroutines 0 and 1 top chunk 1 up; 2 and 3 admit others.
				id, segs := int64(1), reqs[(g+i)%len(reqs)]
				if g >= 2 {
					id, segs = int64(2+(g+i)%2), reqs[(g+i)%3]
				}
				h, err := s.Acquire(context.Background(), id, segs)
				if err != nil {
					t.Error(err)
					return
				}
				hs = append(hs, held{id, h})
				for _, x := range hs {
					for _, b := range x.h.Rel().Batches() {
						if v := storage.Float64s(b.Cols[0])[0]; v < float64(x.id*10) || v > float64(x.id*10+3) {
							t.Errorf("a handle on chunk %d reads %v: its arena was reused", x.id, v)
							return
						}
					}
				}
				if len(hs) > 2 {
					hs[0].h.Release()
					hs = hs[1:]
				}
			}
		}(g)
	}
	wg.Wait()
	dt.WaitIdle()
	st, cst := s.Stats(), s.CacheStats()
	if st.Resident != cst.Chunks || st.ResidentBytes != cst.BytesUsed {
		t.Errorf("store holds %d entries of %d bytes, the recycler charges %d of %d", st.Resident, st.ResidentBytes, cst.Chunks, cst.BytesUsed)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, c := range s.resident {
		if n := c.refs.Load(); n != 1 {
			t.Errorf("idle resident chunk %d holds %d references", id, n)
		}
	}
}
