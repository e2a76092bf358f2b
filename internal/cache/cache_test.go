package cache

import (
	"sync"
	"testing"
	"time"
)

func TestAdmitContains(t *testing.T) {
	r := New(100, LRU, nil)
	if r.Peek(1) {
		t.Fatal("empty cache contains chunk")
	}
	r.Touch(1) // touching an absent chunk is a no-op
	if !r.Admit(1, 40, time.Millisecond) {
		t.Fatal("admit refused")
	}
	if !r.Peek(1) {
		t.Fatal("admitted chunk missing")
	}
	s := r.Stats()
	if s.Chunks != 1 || s.BytesUsed != 40 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []int64
	r := New(100, LRU, func(id int64) { evicted = append(evicted, id) })
	r.Admit(1, 40, time.Millisecond)
	r.Admit(2, 40, time.Millisecond)
	r.Touch(1) // 1 is now more recent than 2
	r.Admit(3, 40, time.Millisecond)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v", evicted)
	}
	if !r.Peek(1) || !r.Peek(3) || r.Peek(2) {
		t.Fatal("wrong residency after eviction")
	}
	if r.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", r.Stats().Evictions)
	}
}

func TestOversizedChunkRefused(t *testing.T) {
	var evicted []int64
	r := New(50, LRU, func(id int64) { evicted = append(evicted, id) })
	r.Admit(1, 30, time.Millisecond)
	if r.Admit(2, 60, time.Millisecond) {
		t.Fatal("oversized chunk admitted")
	}
	if len(evicted) != 0 {
		t.Fatal("oversized admit evicted residents")
	}
	if !r.Peek(1) {
		t.Fatal("resident lost")
	}
}

func TestZeroCapacityDisablesCache(t *testing.T) {
	r := New(0, LRU, nil)
	if r.Admit(1, 1, 0) {
		t.Fatal("zero-capacity cache admitted a chunk")
	}
}

func TestReAdmitUpdatesSize(t *testing.T) {
	r := New(100, LRU, nil)
	r.Admit(1, 40, time.Millisecond)
	r.Admit(1, 70, time.Millisecond)
	if got := r.Stats().BytesUsed; got != 70 {
		t.Fatalf("bytes = %d", got)
	}
	if got := r.Stats().Chunks; got != 1 {
		t.Fatalf("chunks = %d", got)
	}
}

func TestCostAwareKeepsExpensiveChunks(t *testing.T) {
	var evicted []int64
	r := New(100, CostAware, func(id int64) { evicted = append(evicted, id) })
	r.Admit(1, 40, time.Second)      // expensive to reload
	r.Admit(2, 40, time.Microsecond) // cheap to reload
	// Under LRU, chunk 1 (older) would be the victim; cost-aware must
	// instead evict the cheap chunk 2.
	r.Admit(3, 40, time.Millisecond)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", evicted)
	}
	if !r.Peek(1) {
		t.Fatal("expensive chunk evicted")
	}
}

func TestDropAndClear(t *testing.T) {
	var evicted []int64
	r := New(100, LRU, func(id int64) { evicted = append(evicted, id) })
	r.Admit(1, 10, 0)
	r.Admit(2, 10, 0)
	if !r.Drop(1) {
		t.Fatal("drop failed")
	}
	if r.Drop(1) {
		t.Fatal("double drop succeeded")
	}
	if len(evicted) != 0 {
		t.Fatal("drop fired eviction callback")
	}
	r.Clear()
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("clear evictions = %v", evicted)
	}
	s := r.Stats()
	if s.Chunks != 0 || s.BytesUsed != 0 {
		t.Fatalf("stats after clear = %+v", s)
	}
}

func TestResetStats(t *testing.T) {
	r := New(10, LRU, nil)
	r.Admit(1, 10, 0)
	r.Admit(2, 10, 0) // evicts 1
	if r.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	r.ResetStats()
	s := r.Stats()
	if s.Evictions != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
	if s.Chunks != 1 {
		t.Fatal("reset dropped residency")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New(1000, LRU, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64((g*200 + i) % 50)
				if r.Peek(id) {
					r.Touch(id)
				} else {
					r.Admit(id, 10, time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Stats()
	if s.BytesUsed > 1000 {
		t.Fatalf("capacity exceeded: %+v", s)
	}
}
