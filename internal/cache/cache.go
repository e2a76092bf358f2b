// Package cache implements the recycler: the chunk cache that keeps
// lazily loaded actual data resident between queries. It mirrors the
// role of MonetDB's Recycler in the paper — plain LRU by default — and
// additionally offers the cost-aware replacement policy the paper lists
// as future work ("Smarter Caching"), where eviction weighs loading
// cost against recency.
//
// The recycler is a policy, not a map: the chunk store owns the
// resident entries and their one lock (chunkstore.Store's mu), which
// guards the recycler's charges and LRU list along with its own map.
// The package's other half, the disk tier, has locks of its own.
package cache

import (
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

// Entry is one resident chunk's replacement state: its charge, load
// cost, reuse count, recency and LRU links. The chunk store keeps one
// in each of its chunks; the store's lock guards it, as it guards the
// Recycler.
type Entry struct {
	id       int64
	bytes    int64
	loadCost time.Duration
	hits     atomic.Int64
	lastUsed atomic.Int64 // logical clock

	// Intrusive LRU list linkage, changed only under the owner's
	// exclusive lock. stamp records lastUsed as of the entry's most
	// recent reposition: lastUsed > stamp means the entry was touched
	// (lock-free, by Touch) since it was placed, and deserves a second
	// chance before eviction.
	prev, next *Entry
	stamp      int64
}

// Recycler is the replacement policy of a chunk store
// (internal/chunkstore): it charges the entries the store admits
// against a byte capacity and picks the victims that make room. It
// holds no entries of its own and no lock: the store calls it under
// its own lock — exclusive for Admit and Clear, shared (at least) for
// Touch and Stats.
//
// Touch is the per-chunk hot path of every lazy query, so it is plain
// atomics: recency is a logical clock stamped onto the entry.
//
// Recency is two-level: Touch stamps the clock onto the entry (an
// exclusive move-to-front would serialize the hot path), while an
// intrusive doubly-linked list — maintained only under the exclusive
// lock, where structural changes already serialize — keeps entries in
// approximate recency order. LRU victim selection pops the list tail
// and lazily repositions entries whose atomic stamp outran their list
// position (a second chance), giving amortized O(1) eviction; before
// the list, every eviction scanned all entries for the minimum
// timestamp, a cost that grew with cache size exactly when the disk
// tier raises eviction churn.
type Recycler struct {
	capacity  int64
	policy    Policy
	used      int64
	n         int // admitted entries
	evictions int64

	// LRU list: head is most recently positioned, tail the eviction
	// candidate; it links every admitted entry.
	lruHead, lruTail *Entry

	clock atomic.Int64
}

// New creates a recycler with the given byte capacity and policy. A
// capacity of zero disables caching entirely: every Admit is refused.
func New(capacity int64, policy Policy) *Recycler {
	return &Recycler{capacity: capacity, policy: policy}
}

// Touch refreshes an admitted entry's recency and reuse count: the
// recycler's view of a cache hit.
func (r *Recycler) Touch(e *Entry) {
	e.lastUsed.Store(r.clock.Add(1))
	e.hits.Add(1)
}

// Admit charges e, the chunk id's new entry, bytes, in place of old
// (nil: none), and evicts until the charges fit the capacity, never e.
// It returns the IDs of the evicted entries, which the caller stops
// holding resident. It returns false — changing nothing, old included —
// if the chunk can never fit (larger than capacity); the caller then
// treats it as uncacheable and drops it after the query.
func (r *Recycler) Admit(id int64, e *Entry, bytes int64, loadCost time.Duration, old *Entry) ([]int64, bool) {
	if bytes > r.capacity {
		return nil, false
	}
	if old != nil {
		// A replacement keeps the entry's reuse and counts as one more.
		r.remove(old)
		e.hits.Store(old.hits.Load() + 1)
	}
	e.id, e.bytes, e.loadCost = id, bytes, loadCost
	e.lastUsed.Store(r.clock.Add(1))
	r.pushFront(e)
	r.used += bytes
	r.n++
	var evicted []int64
	for r.used > r.capacity {
		victim := r.victim(e)
		if victim == nil {
			break
		}
		r.remove(victim)
		r.evictions++
		evicted = append(evicted, victim.id)
	}
	return evicted, true
}

func (r *Recycler) victim(pinned *Entry) *Entry {
	switch r.policy {
	case CostAware:
		var worst *Entry
		var worstScore float64
		for e := r.lruHead; e != nil; e = e.next {
			if e == pinned {
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
		// touched continuously while the exclusive lock is held.
		for i, limit := 0, 2*r.n+2; i < limit; i++ {
			e := r.lruTail
			if e == nil {
				return nil
			}
			if e == pinned || e.lastUsed.Load() > e.stamp {
				r.unlink(e)
				r.pushFront(e)
				continue
			}
			return e
		}
		for e := r.lruTail; e != nil; e = e.prev {
			if e != pinned {
				return e
			}
		}
		return nil
	}
}

// pushFront links e at the list head and records the recency stamp
// the position reflects; e must not be linked.
func (r *Recycler) pushFront(e *Entry) {
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

// unlink removes e from the list; e must be linked.
func (r *Recycler) unlink(e *Entry) {
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

func (r *Recycler) remove(e *Entry) {
	r.unlink(e)
	r.used -= e.bytes
	r.n--
}

// Clear drops every entry without counting evictions, returning their
// IDs: a restart for "cold" runs.
func (r *Recycler) Clear() []int64 {
	ids := make([]int64, 0, r.n)
	for e := r.lruHead; e != nil; e = e.next {
		ids = append(ids, e.id)
	}
	r.lruHead, r.lruTail, r.used, r.n = nil, nil, 0, 0
	return ids
}

// Stats returns a snapshot of the counters (Hits and Misses zero).
func (r *Recycler) Stats() Stats {
	return Stats{Evictions: r.evictions, BytesUsed: r.used, Chunks: r.n}
}
