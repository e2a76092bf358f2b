package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultPlanCacheSize is the compiled-plan cache capacity (entries).
const DefaultPlanCacheSize = 256

// PlanCacheStats reports compiled-plan cache activity.
type PlanCacheStats struct {
	Hits, Misses int64
	Size         int
	Capacity     int
}

// planCache is a bounded LRU of compiled statements keyed by normalized
// SQL. It is safe for concurrent use; two goroutines racing to compile
// the same statement both succeed (last insert wins — compilation is
// idempotent, and compiled plans are immutable, so either entry serves
// both).
type planCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *cacheEntry
	m   map[string]*list.Element

	hits, misses atomic.Int64
}

type cacheEntry struct {
	key string
	c   *compiled
}

// newPlanCache returns a cache bounded to capacity (> 0) entries.
func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// Get returns the compiled statement for key, marking it most recently
// used.
func (pc *planCache) Get(key string) (*compiled, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.m[key]
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	pc.ll.MoveToFront(el)
	pc.hits.Add(1)
	return el.Value.(*cacheEntry).c, true
}

// Put inserts (or refreshes) a compiled statement, evicting the least
// recently used entry beyond capacity.
func (pc *planCache) Put(key string, c *compiled) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.m[key]; ok {
		el.Value.(*cacheEntry).c = c
		pc.ll.MoveToFront(el)
		return
	}
	pc.m[key] = pc.ll.PushFront(&cacheEntry{key: key, c: c})
	for pc.ll.Len() > pc.cap {
		last := pc.ll.Back()
		pc.ll.Remove(last)
		delete(pc.m, last.Value.(*cacheEntry).key)
	}
}

// Keys returns the cached normalized-SQL keys, most recently used
// first. The warm-restart machinery persists them so a restarted
// process can pre-compile the hot statement set.
func (pc *planCache) Keys() []string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	keys := make([]string, 0, pc.ll.Len())
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// Stats snapshots the counters.
func (pc *planCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:     pc.hits.Load(),
		Misses:   pc.misses.Load(),
		Size:     pc.ll.Len(),
		Capacity: pc.cap,
	}
}
