package physical

import (
	"sync"
	"sync/atomic"

	"sommelier/internal/storage"
)

// This file implements morsel-driven parallel execution (Leis et al.,
// SIGMOD'14, adapted to the pull model): a scan partitions its batch
// list into morsel ranges, each range becomes an independent operator
// chain, and a small worker pool claims ranges off a shared cursor.
// Each worker drains its chain through its own Coalescer into a
// per-range relation; ranges are reassembled in morsel order, so the
// parallel result holds exactly the serial result's rows in the serial
// order (only batch boundaries may differ). Operators that materialize
// their input internally — hash-join build, aggregation, sort — run
// their own parallelism instead (partial aggregates, parallel input
// drain) and stay single-stream to their consumer.

// morselFanout is how many splits ParallelDrain requests per worker:
// more ranges than workers lets the pool balance skew (zone-map skips,
// selective predicates) without giving up deterministic reassembly.
const morselFanout = 4

// scanSplitGrain is the minimum number of batches per range a scan
// split produces (~16k rows): below that, per-range setup (predicate
// clones, coalescers, partial-aggregate tables) costs more than the
// parallelism buys.
const scanSplitGrain = 4

// Splitter is an Operator that can partition its remaining work into
// independent operators, each safe to run on its own goroutine.
// Splitting transfers the work: after a successful Split only the
// returned operators may be consumed, never the receiver. Concatenating
// the outputs of the returned operators in slice order yields the rows
// the receiver would have produced, in the same order. A nil slice with
// a nil error reports that the operator cannot split (too little work,
// or a non-splittable input).
type Splitter interface {
	Operator
	Split(n int) ([]Operator, error)
}

// ParallelHinter is implemented by operators that materialize an input
// internally (hash-join build, aggregation, sort) and can use a degree
// of parallelism granted by the executor. SetParallel must be called
// before the first Next.
type ParallelHinter interface {
	SetParallel(dop int)
}

// QuotaHinter is implemented by operators that materialize an input
// internally (sort input, top-k buffers, join build side) and charge
// that materialization against the per-query memory ceiling. SetQuota
// must be called before the first Next; a nil quota means unlimited.
type QuotaHinter interface {
	SetQuota(q *storage.Quota)
}

// CheckHinter is implemented by pipeline breakers (hash-join build,
// aggregation, sort, top-k) that drain their input internally and
// would otherwise run that drain unchecked: the executor hands them
// its cancellation check so a query whose deadline expired mid-build
// stops at the next batch instead of materializing to completion.
// SetCheck must be called before the first Next; a nil check means
// uncancellable.
type CheckHinter interface {
	SetCheck(check func() error)
}

// ParallelDrain drains op to completion with up to dop workers when the
// operator can split its work, falling back to the serial Drain
// otherwise. The result holds the same rows in the same order as the
// serial drain. check (may be nil) is consulted between batches on
// every worker, as in Drain.
func ParallelDrain(op Operator, dop int, check func() error) (*storage.Relation, error) {
	return DrainWith(op, DrainOpts{DOP: dop, Check: check})
}

// ParallelDrainPooled is ParallelDrain with pooled coalescer output and
// pooled per-range relation headers; the caller owns (and Releases) the
// returned relation.
func ParallelDrainPooled(op Operator, dop int, check func() error) (*storage.Relation, error) {
	return DrainWith(op, DrainOpts{DOP: dop, Check: check, Pooled: true})
}

// DrainOpts configures DrainWith; the zero value is a serial,
// unpooled, unchecked, unmetered drain.
type DrainOpts struct {
	// DOP grants the drain up to this many workers when the operator
	// can split its work.
	DOP int
	// Check runs before every pull and aborts the drain when it errors.
	Check func() error
	// Pooled draws coalesced output (and per-range relation headers)
	// from the batch pool; the caller owns and Releases the result.
	Pooled bool
	// Quota, when non-nil, is charged for every batch materialized into
	// the output — the per-query memory ceiling.
	Quota *storage.Quota
	// Morsel, when non-nil, runs once per morsel-range claim (and once
	// up front on the serial path) and aborts the drain when it errors.
	// The executor uses it for the runaway-query watchdog and the
	// exec.morsel fault point: Check bounds how long a worker runs
	// between pulls, Morsel bounds it between range claims and is the
	// one place injected stalls land.
	Morsel func() error
}

// DrainWith drains op to completion into a relation under the given
// options; the general form behind Drain/DrainPooled/ParallelDrain.
func DrainWith(op Operator, o DrainOpts) (*storage.Relation, error) {
	if o.DOP > 1 {
		if sp, ok := op.(Splitter); ok {
			parts, err := sp.Split(o.DOP * morselFanout)
			if err != nil {
				return nil, err
			}
			if len(parts) > 1 {
				return drainParts(parts, o)
			}
			if len(parts) == 1 {
				if err := claimCheck(o.Morsel); err != nil {
					return nil, err
				}
				return drainInto(parts[0], o.Check, NewOutputRelation(parts[0]), o.Pooled, o.Quota)
			}
		}
	}
	if err := claimCheck(o.Morsel); err != nil {
		return nil, err
	}
	return drainInto(op, o.Check, NewOutputRelation(op), o.Pooled, o.Quota)
}

// claimCheck runs a morsel-claim hook, treating nil as pass.
func claimCheck(morsel func() error) error {
	if morsel == nil {
		return nil
	}
	return morsel()
}

// runParts invokes run for every part index in [0, n), claimed off a
// shared atomic cursor by up to dop workers; the remaining workers stop
// after the first error, which is returned. With dop ≤ 1 the parts run
// sequentially on the calling goroutine, in order — the serial
// fallback shares the exact code path of the parallel one. claim (may
// be nil) runs after every cursor claim, before the part's work: an
// erroring claim fails the drain without running the part, which is
// how an expired deadline cancels within one morsel.
func runParts(n, dop int, claim func() error, run func(i int) error) error {
	if dop > n {
		dop = n
	}
	if dop <= 1 {
		for i := 0; i < n; i++ {
			if err := claimCheck(claim); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				err := claimCheck(claim)
				if err == nil {
					err = run(i)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// drainParts runs the part operators on a pool of dop workers, each
// part drained through its own Coalescer into its own relation, and
// reassembles the per-part relations in part order. Under pooling the
// per-range relation headers come from (and return to) the relation
// pool; their batches transfer wholesale to the reassembled output,
// which alone owns them afterwards.
func drainParts(parts []Operator, o DrainOpts) (*storage.Relation, error) {
	pooled, quota := o.Pooled, o.Quota
	outs := make([]*storage.Relation, len(parts))
	err := runParts(len(parts), o.DOP, o.Morsel, func(i int) error {
		var rel *storage.Relation
		if pooled {
			rel = storage.GetRelation(batchHint(parts[i]))
		} else {
			rel = NewOutputRelation(parts[i])
		}
		rel, err := drainInto(parts[i], o.Check, rel, pooled, quota)
		if err == nil {
			outs[i] = rel
		}
		return err
	})
	if err != nil {
		// Parts that finished before the failing one drained into
		// pooled relations nobody will merge: recycle their batches and
		// hand the headers back.
		if pooled {
			for _, rel := range outs {
				if rel != nil {
					rel.Release()
					storage.PutRelation(rel)
				}
			}
		}
		return nil, err
	}
	nb := 0
	for _, rel := range outs {
		nb += len(rel.Batches())
	}
	out := storage.NewRelationWithCap(nb)
	for _, rel := range outs {
		for _, b := range rel.Batches() {
			out.Append(b)
		}
		if pooled {
			storage.PutRelation(rel)
		}
	}
	return out, nil
}

// batchHint reports the operator's batch-count hint, zero if none.
func batchHint(op Operator) int {
	if h, ok := op.(BatchHinter); ok {
		return h.BatchHint()
	}
	return 0
}

// splitRanges cuts length items into at most n contiguous ranges of at
// least minPer items each, returned as [lo, hi) index pairs.
func splitRanges(length, n, minPer int) [][2]int {
	if length <= 0 || n <= 1 {
		return nil
	}
	maxParts := length / minPer
	if maxParts < 1 {
		maxParts = 1
	}
	if n > maxParts {
		n = maxParts
	}
	if n <= 1 {
		return nil
	}
	ranges := make([][2]int, 0, n)
	per, rem := length/n, length%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + per
		if i < rem {
			hi++
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}
