package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Quota is a per-query ceiling on the bytes a query may materialize
// into its own buffers: drained result relations, pipeline-breaker
// builds (sort input, hash-join build side) and the bounded run-ahead
// of the parallel drain all charge against it. The ceiling is enforced
// at the boundary where batches accumulate into per-query state;
// transient per-batch working memory (one coalescer's worth per
// worker) is not counted.
//
// A quota may additionally be parented on a process-wide Governor
// (NewGovernedQuota): every charge then reserves the same bytes from
// the global pool and every refund returns them, so the sum of all
// concurrent queries' materialized state is bounded too. Close
// releases whatever the query still holds — including a streaming
// query abandoned mid-result — so the global reservation always
// returns to zero when the query ends.
//
// A nil *Quota means "unlimited" and every method is a no-op, so
// callers thread it unconditionally.
type Quota struct {
	limit int64
	used  atomic.Int64

	// Governor parenting. ctx bounds the wait for global capacity;
	// govHeld mirrors the bytes currently reserved from gov so Close
	// can return the remainder exactly once.
	gov     *Governor
	ctx     context.Context
	mu      sync.Mutex
	govHeld int64
	closed  bool
}

// NewQuota returns a quota enforcing the given byte limit, or nil
// (unlimited) when limit <= 0.
func NewQuota(limit int64) *Quota {
	if limit <= 0 {
		return nil
	}
	return &Quota{limit: limit}
}

// NewGovernedQuota returns a quota enforcing the per-query limit
// (<= 0 = no per-query ceiling) with every charge also reserved from
// g's global pool. ctx bounds how long a charge may wait for global
// capacity. Returns nil (fully unlimited) only when there is neither
// a per-query limit nor a governor: a query with no ceiling of its
// own must still be governed.
func NewGovernedQuota(ctx context.Context, limit int64, g *Governor) *Quota {
	if limit <= 0 && g == nil {
		return nil
	}
	if limit < 0 {
		limit = 0
	}
	return &Quota{limit: limit, gov: g, ctx: ctx}
}

// Charge records n more bytes of per-query materialized state and
// errors with a *QuotaError once the total exceeds the limit.
// Pipeline-breaker buffers are charged and never refunded (the
// materialization must exist in full at some point, and the engine
// loses sight of result relations once handed to the caller), so for
// materialize-heavy plans the ceiling bounds cumulative
// materialization — a slight over-count of the true peak. The drain
// refunds its run-ahead buffers as they are delivered, so a streamed
// scan's charge stays bounded regardless of result size.
//
// On a governed quota the same n is reserved from the global pool
// before Charge succeeds; the reservation may briefly wait for other
// queries to refund or finish, then fails with a *GovernorError when
// the process-wide budget stays exhausted.
func (q *Quota) Charge(n int64) error {
	if q == nil || n <= 0 {
		return nil
	}
	if used := q.used.Add(n); q.limit > 0 && used > q.limit {
		return &QuotaError{Limit: q.limit, Used: used}
	}
	if q.gov == nil {
		return nil
	}
	if err := q.gov.Reserve(q.ctx, n); err != nil {
		return err
	}
	q.mu.Lock()
	if q.closed {
		// The query already released everything (raced with teardown);
		// hand the reservation straight back rather than stranding it.
		q.mu.Unlock()
		q.gov.Release(n)
		return nil
	}
	q.govHeld += n
	q.mu.Unlock()
	return nil
}

// Refund returns n bytes to the quota: the counterpart of Charge for
// buffers that were delivered downstream and recycled mid-query. On a
// governed quota the bytes go back to the global pool immediately, so
// a streaming query's global footprint tracks its bounded run-ahead,
// not its total result size.
func (q *Quota) Refund(n int64) {
	if q == nil || n <= 0 {
		return
	}
	q.used.Add(-n)
	if q.gov == nil {
		return
	}
	q.mu.Lock()
	if q.closed || q.govHeld <= 0 {
		q.mu.Unlock()
		return
	}
	if n > q.govHeld {
		n = q.govHeld
	}
	q.govHeld -= n
	q.mu.Unlock()
	q.gov.Release(n)
}

// Close releases the query's remaining global reservation. Called
// exactly once when the query ends — normally, cancelled, or with a
// streaming client gone mid-result — after which the governor sees
// none of this query's bytes. Safe on nil and idempotent.
func (q *Quota) Close() {
	if q == nil || q.gov == nil {
		return
	}
	q.mu.Lock()
	held := q.govHeld
	q.govHeld = 0
	q.closed = true
	q.mu.Unlock()
	q.gov.Release(held)
}

// Used reports the bytes charged so far (0 on a nil quota).
func (q *Quota) Used() int64 {
	if q == nil {
		return 0
	}
	return q.used.Load()
}

// QuotaError reports that a query exceeded its memory ceiling
// (engine Config.MaxQueryBytes / sommelierd -max-query-bytes).
type QuotaError struct {
	Limit, Used int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("query memory ceiling exceeded: %d bytes materialized, limit %d", e.Used, e.Limit)
}
