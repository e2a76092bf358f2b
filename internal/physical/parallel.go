package physical

import (
	"sync"
	"sync/atomic"
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

// morselFanout is how many splits Drain requests per worker:
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

// Breaker is implemented by pipeline breakers — hash-join build,
// aggregation, sort, top-k — that drain an input internally. The
// executor hands them the query's drain options before the first Next
// or Split: the degree of parallelism of the internal drain, the
// cancellation check that stops it at the next batch once the query's
// deadline expires, and the per-query ceiling its materialization
// charges (aggregation and top-k keep bounded state and charge
// nothing). They ignore Morsel: the claim hook, with its fault point,
// belongs to top-level drains, so fault counts stay proportional to
// top-level morsels; an internal drain checks cancellation at each
// claim instead.
type Breaker interface {
	SetDrain(o DrainOpts)
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
