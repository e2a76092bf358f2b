package cache

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// order lists the admitted entries' IDs from the LRU list's head (most
// recently positioned) to its tail.
func order(r *Recycler) []int64 {
	var ids []int64
	for e := r.lruHead; e != nil; e = e.next {
		ids = append(ids, e.id)
	}
	return ids
}

// admit admits a fresh entry for id, failing the test on a refusal, and
// returns the entry with the IDs evicted to make room.
func admit(t *testing.T, r *Recycler, id, bytes int64, cost time.Duration) (*Entry, []int64) {
	t.Helper()
	e := new(Entry)
	evicted, ok := r.Admit(id, e, bytes, cost, nil)
	if !ok {
		t.Fatalf("admit of chunk %d (%d B) refused", id, bytes)
	}
	return e, evicted
}

func TestAdmitContains(t *testing.T) {
	r := New(100, LRU)
	if len(order(r)) != 0 {
		t.Fatal("empty cache contains chunk")
	}
	if _, evicted := admit(t, r, 1, 40, time.Millisecond); len(evicted) != 0 {
		t.Fatalf("evicted = %v", evicted)
	}
	if !slices.Equal(order(r), []int64{1}) {
		t.Fatalf("admitted chunk missing: %v", order(r))
	}
	s := r.Stats()
	if s.Chunks != 1 || s.BytesUsed != 40 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestLRUEviction: the victim is the least recently used entry, and an
// entry touched since it was placed gets a second chance.
func TestLRUEviction(t *testing.T) {
	r := New(100, LRU)
	e1, _ := admit(t, r, 1, 40, time.Millisecond)
	admit(t, r, 2, 40, time.Millisecond)
	if !slices.Equal(order(r), []int64{2, 1}) {
		t.Fatalf("order = %v", order(r))
	}
	r.Touch(e1) // 1 is now more recent than 2, though still at the tail
	_, evicted := admit(t, r, 3, 40, time.Millisecond)
	if !slices.Equal(evicted, []int64{2}) {
		t.Fatalf("evicted = %v", evicted)
	}
	// The second chance repositioned 1 at the head.
	if !slices.Equal(order(r), []int64{1, 3}) {
		t.Fatalf("wrong residency after eviction: %v", order(r))
	}
	if r.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", r.Stats().Evictions)
	}
}

// TestOversizedChunkRefused: a chunk larger than the capacity is
// refused without evicting anything — nor the entry it would replace.
func TestOversizedChunkRefused(t *testing.T) {
	r := New(50, LRU)
	e1, _ := admit(t, r, 1, 30, time.Millisecond)
	if _, ok := r.Admit(2, new(Entry), 60, time.Millisecond, nil); ok {
		t.Fatal("oversized chunk admitted")
	}
	if _, ok := r.Admit(1, new(Entry), 60, time.Millisecond, e1); ok {
		t.Fatal("oversized replacement admitted")
	}
	if !slices.Equal(order(r), []int64{1}) || r.Stats().BytesUsed != 30 || r.Stats().Evictions != 0 {
		t.Fatalf("resident lost: %v, %+v", order(r), r.Stats())
	}
}

func TestZeroCapacityDisablesCache(t *testing.T) {
	r := New(0, LRU)
	if _, ok := r.Admit(1, new(Entry), 1, 0, nil); ok {
		t.Fatal("zero-capacity cache admitted a chunk")
	}
}

// TestReAdmitUpdatesSize: an entry admitted in place of its chunk's old
// one is charged its own size, once.
func TestReAdmitUpdatesSize(t *testing.T) {
	r := New(100, LRU)
	e1, _ := admit(t, r, 1, 40, time.Millisecond)
	if evicted, ok := r.Admit(1, new(Entry), 70, time.Millisecond, e1); !ok || len(evicted) != 0 {
		t.Fatalf("re-admission: %v, evicted %v", ok, evicted)
	}
	if got := r.Stats().BytesUsed; got != 70 {
		t.Fatalf("bytes = %d", got)
	}
	if got := r.Stats().Chunks; got != 1 {
		t.Fatalf("chunks = %d", got)
	}
}

func TestCostAwareKeepsExpensiveChunks(t *testing.T) {
	r := New(100, CostAware)
	admit(t, r, 1, 40, time.Second)      // expensive to reload
	admit(t, r, 2, 40, time.Microsecond) // cheap to reload
	// Under LRU, chunk 1 (older) would be the victim; cost-aware must
	// instead evict the cheap chunk 2.
	_, evicted := admit(t, r, 3, 40, time.Millisecond)
	if !slices.Equal(evicted, []int64{2}) {
		t.Fatalf("evicted = %v, want [2]", evicted)
	}
	if !slices.Contains(order(r), 1) {
		t.Fatal("expensive chunk evicted")
	}
}

// TestClear: Clear returns every entry and empties the charges without
// counting evictions.
func TestClear(t *testing.T) {
	r := New(100, LRU)
	admit(t, r, 1, 10, 0)
	admit(t, r, 2, 10, 0)
	ids := r.Clear()
	slices.Sort(ids)
	if !slices.Equal(ids, []int64{1, 2}) {
		t.Fatalf("clear returned %v", ids)
	}
	s := r.Stats()
	if s.Chunks != 0 || s.BytesUsed != 0 || s.Evictions != 0 || len(order(r)) != 0 {
		t.Fatalf("stats after clear = %+v, order %v", s, order(r))
	}
	admit(t, r, 3, 10, 0)
	if !slices.Equal(order(r), []int64{3}) {
		t.Fatalf("admission after clear: %v", order(r))
	}
}

// TestConcurrentAccess drives the recycler as its owner does: hits
// Touch under a shared lock while admissions and evictions hold it
// exclusively.
func TestConcurrentAccess(t *testing.T) {
	r := New(1000, LRU)
	var mu sync.RWMutex
	resident := make(map[int64]*Entry)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64((g*200 + i) % 50)
				mu.RLock()
				e := resident[id]
				if e != nil {
					r.Touch(e)
				}
				mu.RUnlock()
				if e != nil {
					continue
				}
				mu.Lock()
				if resident[id] == nil {
					e := new(Entry)
					evicted, _ := r.Admit(id, e, 10, time.Millisecond, nil)
					resident[id] = e
					for _, v := range evicted {
						delete(resident, v)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	s := r.Stats()
	if s.BytesUsed > 1000 || s.Chunks != len(resident) {
		t.Fatalf("capacity exceeded or residency lost: %+v, %d resident", s, len(resident))
	}
}
