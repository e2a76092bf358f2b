// Package cache implements the recycler: the chunk cache that keeps
// lazily loaded actual data resident between queries. It mirrors the
// role of MonetDB's Recycler in the paper — plain LRU by default — and
// additionally offers the cost-aware replacement policy the paper lists
// as future work ("Smarter Caching"), where eviction weighs loading
// cost against recency.
package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects the replacement strategy.
type Policy uint8

// Replacement policies.
const (
	// LRU evicts the least recently used chunk (the paper's default).
	LRU Policy = iota
	// CostAware evicts the chunk with the lowest
	// loadCost × frequency / size score, so expensive-to-reload
	// chunks survive longer.
	CostAware
)

// Stats aggregates cache activity; Hits and Misses are counted by the
// cache's owner (internal/chunkstore).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	BytesUsed int64
	Chunks    int
}

type entry struct {
	id       int64
	bytes    int64
	loadCost time.Duration
	hits     atomic.Int64
	lastUsed atomic.Int64 // logical clock

	// Intrusive LRU list linkage, guarded by the recycler write lock.
	// stamp records lastUsed as of the entry's most recent reposition:
	// lastUsed > stamp means the entry was touched (lock-free, by Touch)
	// since it was placed, and deserves a second chance before eviction.
	prev, next *entry
	stamp      int64
}

// Recycler is a byte-capacity bounded cache of chunk IDs: the
// replacement policy of a chunk store (internal/chunkstore), which it
// tells what to drop through the eviction callback.
//
// Touch is the per-chunk hot path of every lazy query, so it never
// takes the exclusive lock: the entry map is read under an RWMutex read
// lock, and recency (a logical clock stamped onto the entry) is a plain
// atomic. Only structural changes — admission, eviction, drops —
// serialize on the write lock.
//
// Recency is two-level: Touch stamps a logical clock onto the entry
// with plain atomics (an exclusive-locked move-to-front would
// serialize the hot path), while an intrusive doubly-linked list —
// maintained only under the write lock, where structural changes
// already serialize — keeps entries in approximate recency order. LRU
// victim selection pops the list tail and lazily repositions entries
// whose atomic stamp outran their list position (a second chance),
// giving amortized O(1) eviction; before the list, every eviction
// scanned all entries for the minimum timestamp, a cost that grew with
// cache size exactly when the disk tier raises eviction churn.
type Recycler struct {
	mu       sync.RWMutex
	capacity int64
	used     int64 // guarded by mu (write lock)
	policy   Policy
	entries  map[int64]*entry
	onEvict  func(chunkID int64)

	// LRU list: head is most recently positioned, tail the eviction
	// candidate. Guarded by mu (write lock).
	lruHead, lruTail *entry

	clock     atomic.Int64
	evictions atomic.Int64
}

// New creates a recycler with the given byte capacity and policy.
// onEvict (may be nil) is called with the chunk ID after eviction.
// A capacity of zero disables caching entirely: every Admit is refused.
func New(capacity int64, policy Policy, onEvict func(int64)) *Recycler {
	return &Recycler{
		capacity: capacity,
		policy:   policy,
		entries:  make(map[int64]*entry),
		onEvict:  onEvict,
	}
}

// Touch refreshes a resident chunk's recency and reuse count: the
// recycler's view of a cache hit. An absent chunk is ignored.
func (r *Recycler) Touch(chunkID int64) {
	r.mu.RLock()
	e, ok := r.entries[chunkID]
	r.mu.RUnlock()
	if ok {
		r.touch(e)
	}
}

// Peek reports residency without touching statistics or recency.
func (r *Recycler) Peek(chunkID int64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[chunkID]
	return ok
}

func (r *Recycler) touch(e *entry) {
	e.lastUsed.Store(r.clock.Add(1))
	e.hits.Add(1)
}

// Admit registers a freshly loaded chunk, evicting as needed. It
// returns false — and evicts nothing — if the chunk can never fit
// (larger than capacity); the caller then treats the chunk as
// uncacheable and drops it after the query.
func (r *Recycler) Admit(chunkID int64, bytes int64, loadCost time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if bytes > r.capacity {
		return false
	}
	if e, ok := r.entries[chunkID]; ok {
		// Re-admission updates size accounting.
		r.used += bytes - e.bytes
		e.bytes = bytes
		e.loadCost = loadCost
		r.touch(e)
		r.unlinkLocked(e)
		r.pushFrontLocked(e)
		r.evictOverflowLocked(chunkID)
		return true
	}
	e := &entry{id: chunkID, bytes: bytes, loadCost: loadCost}
	e.lastUsed.Store(r.clock.Add(1))
	r.entries[chunkID] = e
	r.pushFrontLocked(e)
	r.used += bytes
	r.evictOverflowLocked(chunkID)
	_, stillThere := r.entries[chunkID]
	return stillThere
}

// evictOverflowLocked evicts until used ≤ capacity, never evicting the
// pinned chunk (the one just admitted).
func (r *Recycler) evictOverflowLocked(pinned int64) {
	for r.used > r.capacity {
		victim := r.victimLocked(pinned)
		if victim == nil {
			return
		}
		r.removeLocked(victim)
		r.evictions.Add(1)
		if r.onEvict != nil {
			r.onEvict(victim.id)
		}
	}
}

func (r *Recycler) victimLocked(pinned int64) *entry {
	switch r.policy {
	case CostAware:
		var worst *entry
		var worstScore float64
		for _, e := range r.entries {
			if e.id == pinned {
				continue
			}
			// Benefit of keeping: reload cost × observed reuse,
			// per byte of capacity it occupies.
			score := float64(e.loadCost) * float64(e.hits.Load()+1) / float64(e.bytes+1)
			if worst == nil || score < worstScore {
				worst, worstScore = e, score
			}
		}
		// CostAware scores every entry, so it keeps the O(resident
		// chunks) scan; only the default LRU policy gets the list-tail
		// fast path below.
		return worst
	default:
		// LRU: pop the list tail, giving a second chance (reposition at
		// the front) to entries whose lock-free recency stamp outran
		// their list position. Amortized O(1): each reposition pays for
		// itself by recording the stamp it honored. The iteration bound
		// only guards against the pathological case of every entry being
		// touched continuously while we hold the write lock.
		for i, limit := 0, 2*len(r.entries)+2; i < limit; i++ {
			e := r.lruTail
			if e == nil {
				return nil
			}
			if e.id == pinned || e.lastUsed.Load() > e.stamp {
				r.unlinkLocked(e)
				r.pushFrontLocked(e)
				continue
			}
			return e
		}
		for e := r.lruTail; e != nil; e = e.prev {
			if e.id != pinned {
				return e
			}
		}
		return nil
	}
}

// pushFrontLocked links e at the list head and records the recency
// stamp the position reflects. Caller holds the write lock; e must not
// be linked.
func (r *Recycler) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = r.lruHead
	if r.lruHead != nil {
		r.lruHead.prev = e
	} else {
		r.lruTail = e
	}
	r.lruHead = e
	e.stamp = e.lastUsed.Load()
}

// unlinkLocked removes e from the list. Caller holds the write lock;
// e must be linked.
func (r *Recycler) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (r *Recycler) removeLocked(e *entry) {
	r.unlinkLocked(e)
	delete(r.entries, e.id)
	r.used -= e.bytes
}

// Drop removes a chunk without counting an eviction (used when the
// owner invalidates data). Reports whether it was resident.
func (r *Recycler) Drop(chunkID int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[chunkID]
	if !ok {
		return false
	}
	r.removeLocked(e)
	return true
}

// Clear empties the cache, invoking the eviction callback for every
// resident chunk. It models a server restart for "cold" runs.
func (r *Recycler) Clear() {
	r.mu.Lock()
	ids := make([]int64, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	for _, id := range ids {
		r.removeLocked(r.entries[id])
	}
	cb := r.onEvict
	r.mu.Unlock()
	if cb != nil {
		for _, id := range ids {
			cb(id)
		}
	}
}

// Stats returns a snapshot of the counters (Hits and Misses zero).
func (r *Recycler) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{
		Evictions: r.evictions.Load(),
		BytesUsed: r.used,
		Chunks:    len(r.entries),
	}
}

// ResetStats zeroes the eviction counter.
func (r *Recycler) ResetStats() {
	r.evictions.Store(0)
}
