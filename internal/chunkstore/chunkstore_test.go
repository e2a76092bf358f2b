package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/fault"
	"sommelier/internal/storage"
)

// arenaLoader serves n-row chunks whose times and values it writes into
// the arena the store hands it — chunk id holds the value id — and
// fails the chunks in fail after taking their arena, and takes the
// time in slow to load those chunks.
type arenaLoader struct {
	n    int
	fail map[int64]error
	slow map[int64]time.Duration
}

func (l arenaLoader) LoadChunkInto(_ context.Context, _ string, id int64, _ []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	time.Sleep(l.slow[id])
	a := mem.TakeArena(l.n, l.n)
	if err := l.fail[id]; err != nil {
		return nil, nil, err
	}
	for i := range a.Ints {
		a.Ints[i], a.Floats[i] = int64(i), float64(id)
	}
	run := storage.NewRunColumn(storage.KindInt64, []int64{id}, []int32{int32(l.n)})
	b := storage.NewBatch(run, storage.NewTimeColumn(a.Ints), storage.NewFloat64Column(a.Floats))
	zs := []storage.Zone{storage.ColumnZone(run), storage.ColumnZone(b.Cols[1]), {}}
	return storage.NewChunkRelation([]*storage.Batch{b}, [][]storage.Zone{zs}), nil, nil
}

func (arenaLoader) AllChunkIDs(string) []int64 { return []int64{0, 1, 2, 3} }

// value reads a handle's first sample value: its chunk ID.
func value(h Handle) float64 { return storage.Float64s(h.Rel().Batches()[0].Cols[2])[0] }

func newStore(cfg Config) *Store {
	s := New("D")
	s.Configure(cfg)
	return s
}

func mustAcquire(t *testing.T, s *Store, id int64) Handle {
	t.Helper()
	h, err := s.Acquire(context.Background(), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if value(h) != float64(id) {
		t.Fatalf("chunk %d holds %v", id, value(h))
	}
	return h
}

// requireNoHandles fails t when a handle s granted is still held.
func requireNoHandles(t *testing.T, s *Store) {
	t.Helper()
	if n := s.Stats().Handles; n != 0 {
		t.Errorf("%d chunk handles still held", n)
	}
}

// TestHandlesGauge: Handles counts every handle granted and not yet
// released — a load's, a hit's, and those on a chunk evicted since,
// which Pinned (resident chunks only) misses.
func TestHandlesGauge(t *testing.T) {
	l := arenaLoader{n: 100}
	s := newStore(Config{Loader: l, CacheBytes: chunkBytes(t, l) + 1})
	loaded := mustAcquire(t, s, 0)
	hit := mustAcquire(t, s, 0)
	mustAcquire(t, s, 1).Release() // evicts 0
	if st := s.Stats(); st.Handles != 2 || st.Pinned != 0 {
		t.Fatalf("two handles on an evicted chunk: %+v", st)
	}
	loaded.Release()
	hit.Release()
	requireNoHandles(t, s)
}

// TestEvictedArenaServesNextLoad: an evicted, released chunk's arena is
// what the next load writes into, so a steady stream of misses
// allocates nothing once warm.
func TestEvictedArenaServesNextLoad(t *testing.T) {
	l := arenaLoader{n: 100}
	s := newStore(Config{Loader: l, CacheBytes: 2 * chunkBytes(t, l)})
	for id := int64(0); id < 12; id++ {
		mustAcquire(t, s, id%4).Release()
	}
	st := s.Stats()
	// Two loads fill the cache; from the third on, each load evicts the
	// least recently used chunk, whose arena the one after takes.
	if st.Resident != 2 || st.ArenasAllocated != 3 || st.ArenasReused != 9 || st.FreeArenas != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if cs := s.CacheStats(); cs.Misses != 12 || cs.Hits != 0 || cs.Evictions != 10 {
		t.Fatalf("cache stats = %+v", cs)
	}
}

// TestReplacement: the store evicts what its recycler picks — the
// least recently used chunk, after a second chance for one hit since it
// was placed, or under CostAware the cheapest to reload — refuses a
// chunk larger than the cache without evicting anything, and Clear
// spills every chunk without counting evictions.
func TestReplacement(t *testing.T) {
	l := arenaLoader{n: 100, slow: map[int64]time.Duration{1: 20 * time.Millisecond}}
	two := 2 * chunkBytes(t, l)
	for _, tc := range []struct {
		name   string
		policy cache.Policy
		hit    bool
		want   []int64
	}{
		{"lru", cache.LRU, false, []int64{2, 3}},
		{"second chance", cache.LRU, true, []int64{1, 3}},
		{"cost-aware", cache.CostAware, false, []int64{1, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(Config{Loader: l, CacheBytes: two, Policy: tc.policy})
			mustAcquire(t, s, 1).Release()
			mustAcquire(t, s, 2).Release()
			if tc.hit {
				h, _ := s.TryAcquire(1, nil)
				h.Release()
			}
			mustAcquire(t, s, 3).Release()
			if got := s.IDs(); !slices.Equal(got, tc.want) || s.CacheStats().Evictions != 1 {
				t.Fatalf("resident %v, want %v: %+v", got, tc.want, s.CacheStats())
			}
		})
	}

	dt, err := cache.OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	s := newStore(Config{Loader: l, CacheBytes: two, Disk: dt})
	mustAcquire(t, s, 1).Release()
	s.cfg.Loader = arenaLoader{n: 300}
	h := mustAcquire(t, s, 2) // three times the cache's room for one
	h.Release()
	if got := s.IDs(); !slices.Equal(got, []int64{1}) || s.CacheStats().Evictions != 0 {
		t.Fatalf("an oversized chunk evicted: resident %v, %+v", got, s.CacheStats())
	}
	s.Clear()
	dt.WaitIdle()
	if st, cst := s.Stats(), s.CacheStats(); st.Resident != 0 || cst.Chunks != 0 || cst.BytesUsed != 0 || cst.Evictions != 0 || dt.Stats().Blocks != 1 {
		t.Fatalf("after Clear: %+v, %+v, %+v", st, cst, dt.Stats())
	}
}

// chunkBytes is what one of l's chunks is charged.
func chunkBytes(t *testing.T, l arenaLoader) int64 {
	rel, _, err := l.LoadChunkInto(context.Background(), "D", 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rel.MemSize()
}

// TestChargeCoversArena: a chunk is charged its columns plus whatever
// capacity its (recycled) arena has beyond them, and an arena is reused
// only when that excess stays under 1/64 of the chunk.
func TestChargeCoversArena(t *testing.T) {
	s := newStore(Config{Loader: arenaLoader{n: 640}, CacheBytes: 1 << 20})
	s.putArena(storage.Arena{Ints: make([]int64, 650), Floats: make([]float64, 650)})
	h := mustAcquire(t, s, 1)
	defer h.Release()
	st := s.Stats()
	if st.ArenasReused != 1 || st.ResidentBytes != h.Rel().MemSize()+2*10*8 {
		t.Fatalf("stats = %+v, columns %d B", st, h.Rel().MemSize())
	}
	if got := s.CacheStats().BytesUsed; got != st.ResidentBytes {
		t.Fatalf("recycler charged %d, store %d", got, st.ResidentBytes)
	}
	s.putArena(storage.Arena{Ints: make([]int64, 651), Floats: make([]float64, 651)})
	h2 := mustAcquire(t, s, 2)
	defer h2.Release()
	if st := s.Stats(); st.ArenasReused != 1 || st.ArenasAllocated != 1 || st.FreeArenas != 1 {
		t.Fatalf("an arena 11 values too large was reused: %+v", st)
	}
}

// TestFreeListBounded: the free list keeps at most maxFree arenas; the
// rest go to the garbage collector.
func TestFreeListBounded(t *testing.T) {
	s := newStore(Config{Loader: arenaLoader{n: 10}})
	var hs []Handle
	for id := int64(0); id < int64(2*s.maxFree); id++ {
		hs = append(hs, mustAcquire(t, s, id))
	}
	ReleaseAll(hs)
	if st := s.Stats(); st.FreeArenas != s.maxFree || st.Resident != 0 {
		t.Fatalf("stats = %+v, bound %d", st, s.maxFree)
	}
}

// TestFailedLoadsReturnArena: a load that fails after taking its arena
// — a loader error (what degraded mode skips) or a cache.fill fault —
// returns it, and an exec.flight fault takes none.
func TestFailedLoadsReturnArena(t *testing.T) {
	unreachable := errors.New("unreachable")
	for _, tc := range []struct {
		name   string
		faults string
		fail   map[int64]error
		want   error
	}{
		{"loader error", "", map[int64]error{1: unreachable}, unreachable},
		{"cache.fill", "cache.fill=error:1", nil, nil},
		{"exec.flight", "exec.flight=error:1", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Loader: arenaLoader{n: 50, fail: tc.fail}, CacheBytes: 1 << 20}
			if tc.faults != "" {
				cfg.Faults = fault.MustNew(tc.faults, 1)
			}
			s := newStore(cfg)
			_, err := s.Acquire(context.Background(), 1, nil)
			var fe *FillError
			switch {
			case err == nil:
				t.Fatal("load succeeded")
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("err = %v", err)
			case tc.faults == "cache.fill=error:1" && (!errors.As(err, &fe) || fe.Rows != 50 || fe.Bytes <= 0):
				t.Fatalf("cache.fill error %v carries no volume", err)
			}
			st := s.Stats()
			if st.Resident != 0 || st.FreeArenas != int(st.ArenasAllocated) {
				t.Fatalf("arena not returned: %+v", st)
			}
			if tc.faults == "exec.flight=error:1" && st.ArenasAllocated != 0 {
				t.Fatalf("a flight fault took an arena: %+v", st)
			}
		})
	}
}

// TestTransientLoadLivesWithItsHandles: without a recycler nothing
// stays resident, and a transient chunk's arena returns with its last
// handle.
func TestTransientLoadLivesWithItsHandles(t *testing.T) {
	s := newStore(Config{Loader: arenaLoader{n: 10}})
	h := mustAcquire(t, s, 2)
	if st := s.Stats(); st.Resident != 0 || st.FreeArenas != 0 {
		t.Fatalf("stats = %+v", st)
	}
	h.Release()
	if st := s.Stats(); st.FreeArenas != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Chunks larger than the whole cache are transient too.
	s = newStore(Config{Loader: arenaLoader{n: 10}, CacheBytes: 8})
	h = mustAcquire(t, s, 2)
	h.Release()
	if st := s.Stats(); st.Resident != 0 || st.FreeArenas != 1 {
		t.Fatalf("oversized chunk: stats = %+v", st)
	}
}

// TestSpillHoldsArena: an evicted chunk spilling to the disk tier keeps
// its arena until the tier's writer has encoded it, and the block then
// promotes back into a recycled arena.
func TestSpillHoldsArena(t *testing.T) {
	dt, err := cache.OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	l := arenaLoader{n: 200}
	s := newStore(Config{Loader: l, CacheBytes: chunkBytes(t, l) + 1, Disk: dt})
	defer requireNoHandles(t, s)
	mustAcquire(t, s, 1).Release()
	mustAcquire(t, s, 2).Release() // evicts 1: a spill
	dt.WaitIdle()
	if st := s.Stats(); st.FreeArenas != 1 || dt.Stats().Spills != 1 {
		t.Fatalf("after the spill: %+v, %+v", st, dt.Stats())
	}
	h := mustAcquire(t, s, 1) // promoted, evicting 2
	if !h.Loaded || !h.Promoted {
		t.Fatalf("handle = %+v", h)
	}
	h.Release()
	dt.WaitIdle()
	if st := s.Stats(); st.ArenasAllocated != 2 || st.ArenasReused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlushSpillsResident: Flush writes every resident chunk to the
// disk tier.
func TestFlushSpillsResident(t *testing.T) {
	dt, err := cache.OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	s := newStore(Config{Loader: arenaLoader{n: 20}, CacheBytes: 1 << 20, Disk: dt})
	for id := int64(0); id < 3; id++ {
		mustAcquire(t, s, id).Release()
	}
	s.Flush()
	if st := dt.Stats(); st.Blocks != 3 {
		t.Fatalf("disk stats = %+v", st)
	}
	if st := s.Stats(); st.Resident != 3 || st.Pinned != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentAcquireRelease hammers a two-chunk store from several
// goroutines: every handle reads its own chunk's values, whatever the
// evictions and arena reuse around it.
func TestConcurrentAcquireRelease(t *testing.T) {
	l := arenaLoader{n: 300}
	s := newStore(Config{Loader: l, CacheBytes: 2 * chunkBytes(t, l)})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
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
			for i := 0; i < 200; i++ {
				id := int64((g + i) % 5)
				h, err := s.Acquire(context.Background(), id, nil)
				if err != nil {
					t.Error(err)
					return
				}
				hs = append(hs, held{id, h})
				for _, x := range hs {
					v := storage.Float64s(x.h.Rel().Batches()[0].Cols[2])
					if v[0] != float64(x.id) || v[len(v)-1] != float64(x.id) {
						t.Errorf("held chunk %d was overwritten: %v … %v", x.id, v[0], v[len(v)-1])
						return
					}
				}
				if len(hs) > 3 {
					hs[0].h.Release()
					hs = hs[1:]
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Pinned != 0 || st.Handles != 0 || st.Resident > 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWaiterOutlivesLeaderCancel: a waiter whose own ctx is live does
// not fail with its flight leader's cancellation; it leads a fresh
// flight.
func TestWaiterOutlivesLeaderCancel(t *testing.T) {
	s := newStore(Config{Loader: arenaLoader{n: 10}, Faults: fault.MustNew("exec.flight=latency:1:200ms", 1)})
	joined := func(waiters int) {
		for {
			s.mu.Lock()
			f := s.flights[1]
			ok := f != nil && f.waiters == waiters
			s.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		h, err := s.Acquire(ctx, 1, nil)
		h.Release()
		leader <- err
	}()
	joined(0)
	waiter := make(chan error, 1)
	go func() {
		h, err := s.Acquire(context.Background(), 1, nil)
		if err == nil && (!h.Loaded || value(h) != 1) {
			err = fmt.Errorf("the waiter's handle %+v", h)
		}
		h.Release()
		waiter <- err
	}()
	joined(1)
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	requireNoHandles(t, s)
}

// BenchmarkAcquireHit is the hit path of every lazy query: parallel
// TryAcquire and Release of resident chunks.
func BenchmarkAcquireHit(b *testing.B) {
	const chunks = 64
	s := newStore(Config{Loader: arenaLoader{n: 100}, CacheBytes: 1 << 30})
	for id := int64(0); id < chunks; id++ {
		h, err := s.Acquire(context.Background(), id, nil)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for id := int64(0); pb.Next(); id++ {
			h, ok := s.TryAcquire(id%chunks, nil)
			if !ok {
				b.Error("a resident chunk missed")
				return
			}
			h.Release()
		}
	})
}
