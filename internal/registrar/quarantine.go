package registrar

import (
	"sync"
	"time"
)

// quarantine is a TTL blocklist of chunk IDs whose fetch or decode
// failed: repeated queries selecting the same bad chunk are answered
// from here instead of re-hammering the archive through the whole
// retry ladder. Entries expire after QuarantineTTL so a healed chunk
// comes back without intervention.
type quarantine struct {
	mu sync.Mutex
	m  map[int64]quarEntry
}

type quarEntry struct {
	until  time.Time
	reason string
}

// check reports whether the chunk is quarantined now, returning the
// recorded failure reason. Expired entries are removed on the spot.
func (q *quarantine) check(id int64, now time.Time) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.m[id]
	if !ok {
		return "", false
	}
	if now.After(e.until) {
		delete(q.m, id)
		return "", false
	}
	return e.reason, true
}

// add quarantines a chunk until now+QuarantineTTL.
func (q *quarantine) add(id int64, reason string, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.m == nil {
		q.m = make(map[int64]quarEntry)
	}
	q.m[id] = quarEntry{until: now.Add(QuarantineTTL), reason: reason}
}

// size counts live (unexpired) entries, purging dead ones as it goes.
func (q *quarantine) size(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id, e := range q.m {
		if now.After(e.until) {
			delete(q.m, id)
		}
	}
	return len(q.m)
}
