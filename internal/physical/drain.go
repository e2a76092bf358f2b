package physical

import (
	"errors"
	"sync"
	"sync/atomic"

	"sommelier/internal/storage"
)

// This file implements the drain: the one place an operator tree is
// pulled to completion. Batches are delivered to a StreamSink as they
// are produced; a materialized result is the same drain into a
// CollectSink. Only pipeline breakers (sort, aggregation, the join
// build side) buffer rows of their own; everything above them — scans,
// filters, projections, the join probe side — flows through, so with a
// consuming sink a query's resident footprint is independent of its
// result cardinality and the first row reaches the sink long before the
// last one is computed.

// StreamSink receives the batches of a drain, in result order. Push
// takes the batch — even when it returns an error — and may consume or
// retain it. The data a pushed batch references is only guaranteed
// valid until the Drain call that drove the push returns: sinks that
// outlive the query must copy or serialize rows before returning from
// Push.
//
// Returning ErrStopStream stops the drain gracefully: it stops pulling
// (the cancellation propagates down to the morsel cursor, so scan work
// not yet claimed is never done) and Drain reports success. Any other
// error aborts the query with that error.
type StreamSink interface {
	Push(b *storage.Batch) error
}

// ErrStopStream is returned by a StreamSink to end the stream early
// without error: the client has all the rows it wants.
var ErrStopStream = errors.New("physical: stop stream")

// SchemaSink is optionally implemented by sinks that need the output
// schema before the first batch — wire encoders writing a header.
// SetSchema runs once, before execution begins; a zero-row query sees
// SetSchema and then no Push at all.
type SchemaSink interface {
	StreamSink
	SetSchema(names []string, kinds []storage.Kind)
}

// DrainOpts configures Drain and Collect; the zero value is a serial,
// unchecked, unmetered drain.
type DrainOpts struct {
	// DOP grants the drain up to this many workers when the operator
	// can split its work (<=1 drains serially on the caller).
	DOP int
	// Check runs before every pull and aborts the drain when it errors —
	// the executor passes its context's Err for cancellation between
	// batches.
	Check func() error
	// Morsel, when non-nil, runs once per morsel-range claim (and once
	// up front on the serial path) and aborts the drain when it errors.
	// The executor uses it for the runaway-query watchdog and the
	// exec.morsel fault point: Check bounds how long a worker runs
	// between pulls, Morsel bounds it between range claims and is the
	// one place injected stalls land.
	Morsel func() error
	// Quota, when non-nil, is charged for the bounded run-ahead buffers
	// of the parallel drain and refunded as they are delivered. What the
	// sink retains is the sink's to charge (CollectSink does).
	Quota *storage.Quota
}

// Drain pulls op to completion into sink. Selection-carrying batches
// over fixed-width schemas are coalesced into full batches instead of
// gathered one by one; contiguous batches pass through untouched
// (flushing first, to preserve row order).
//
// With DOP > 1 and a splittable operator, morsel ranges are drained by
// a worker pool into per-range buffers and delivered to the sink in
// range order — the rows reach the sink in exactly the serial order,
// only batch boundaries may differ. Delivery is the pacing mechanism: a
// worker may run at most a bounded number of ranges ahead of the
// delivery frontier, so a slow (or backpressured) sink suspends the
// scan instead of buffering the result. Otherwise the drain runs on the
// calling goroutine, delivering batch by batch.
func Drain(op Operator, sink StreamSink, o DrainOpts) error {
	if o.DOP > 1 {
		if sp, ok := op.(Splitter); ok {
			parts, err := sp.Split(o.DOP * morselFanout)
			if err != nil {
				return err
			}
			if len(parts) > 1 {
				return drainRanges(parts, sink, o)
			}
			if len(parts) == 1 {
				op = parts[0]
			}
		}
	}
	err := claimCheck(o.Morsel)
	if err == nil {
		err = drainSerial(op, sink, o.Check)
	}
	if err == ErrStopStream {
		return nil
	}
	return err
}

// Collect drains op into a relation pre-sized from the operator's
// batch-count hint, charging o.Quota for every batch it retains.
func Collect(op Operator, o DrainOpts) (*storage.Relation, error) {
	sink := CollectSink{Rel: storage.NewRelationWithCap(batchHint(op)), Quota: o.Quota}
	if err := Drain(op, &sink, o); err != nil {
		return nil, err
	}
	return sink.Rel, nil
}

// CollectSink accumulates a drain into Rel: the sink that makes the
// result materialized. Every retained batch is charged to Quota (nil =
// unmetered) and never refunded — the engine loses sight of a result
// once it is handed to the caller.
type CollectSink struct {
	Rel   *storage.Relation
	Quota *storage.Quota
}

// Push implements StreamSink.
func (c *CollectSink) Push(b *storage.Batch) error {
	if c.Quota != nil {
		if err := c.Quota.Charge(b.MemSize()); err != nil {
			return err
		}
	}
	c.Rel.Append(b)
	return nil
}

// deliver hands the batches buffered in buf to the sink in order,
// refunding quota (nil when they were never charged) as each one
// leaves, and empties buf. On an error the batches after the failed
// push are refunded and dropped.
func deliver(sink StreamSink, buf *storage.Relation, quota *storage.Quota) error {
	batches := buf.TakeBatches()
	for i, b := range batches {
		// Refund first: a collecting sink charges the same quota for the
		// same bytes on arrival.
		refund(quota, b)
		if err := sink.Push(b); err != nil {
			for _, rest := range batches[i+1:] {
				refund(quota, rest)
			}
			return err
		}
	}
	return nil
}

// refund returns b's bytes to quota. It runs before the push: once
// pushed, the sink may have consumed b.
func refund(quota *storage.Quota, b *storage.Batch) {
	if quota != nil {
		quota.Refund(b.MemSize())
	}
}

// drainSerial is the drain on the calling goroutine. The coalescer
// fills a scratch relation; completed batches are taken out of it and
// pushed as soon as they form, so at most one batch's worth of rows is
// buffered at any time. A sink stop surfaces as ErrStopStream.
func drainSerial(op Operator, sink StreamSink, check func() error) error {
	coal := storage.NewCoalescer(op.Kinds())
	scratch := storage.NewRelation()
	for {
		var (
			b   *storage.Batch
			err error
		)
		if check != nil {
			err = check()
		}
		if err == nil {
			b, err = op.Next()
		}
		if err == nil {
			switch {
			case b == nil:
				coal.Flush(scratch)
			case coal.Eligible(b):
				coal.Add(scratch, b)
			default:
				coal.Flush(scratch)
				scratch.Append(b)
			}
			if len(scratch.Batches()) > 0 {
				err = deliver(sink, scratch, nil)
			}
		}
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
	}
}

// drainRanges drains split ranges on a pool of o.DOP workers, each
// through drainSerial into its own charged buffer, and delivers the
// buffers to the sink in range order. The delivery frontier gates the
// morsel cursor: a range is only claimed when it is within the
// run-ahead window of the next undelivered one, so sink backpressure (a
// blocked Push) suspends scanning, and a sink stop (ErrStopStream)
// stops the remaining ranges from ever being claimed — the sink-driven
// cancellation path of LIMIT queries.
func drainRanges(parts []Operator, sink StreamSink, o DrainOpts) error {
	dop := min(o.DOP, len(parts))
	window := o.DOP * 2
	var (
		mu         sync.Mutex
		ready      = sync.NewCond(&mu)
		outs       = make([]*storage.Relation, len(parts))
		cursor     int // next part index to claim
		next       int // next part index to deliver
		delivering bool
		stop       atomic.Bool // sink stop or failure: cease claiming/pulling
		failErr    error       // first hard error (nil on graceful stop)
		wg         sync.WaitGroup
	)
	// workerCheck aborts in-flight range drains between batches once
	// the drain has stopped.
	workerCheck := func() error {
		if stop.Load() {
			return ErrStopStream
		}
		if o.Check != nil {
			return o.Check()
		}
		return nil
	}
	fail := func(err error) { // with mu held
		stop.Store(true)
		if err != ErrStopStream && failErr == nil {
			failErr = err
		}
		ready.Broadcast()
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stop.Load() && cursor < len(parts) && cursor-next >= window {
					ready.Wait()
				}
				if stop.Load() || cursor >= len(parts) {
					mu.Unlock()
					return
				}
				i := cursor
				cursor++
				mu.Unlock()

				buf := CollectSink{Rel: storage.NewRelationWithCap(batchHint(parts[i])), Quota: o.Quota}
				err := claimCheck(o.Morsel)
				if err == nil {
					err = drainSerial(parts[i], &buf, workerCheck)
				}
				mu.Lock()
				if err != nil {
					fail(err)
					mu.Unlock()
					return
				}
				outs[i] = buf.Rel
				// Deliver the in-order frontier. Only one worker delivers at
				// a time (Push calls must be serialized and ordered); others
				// go back to claiming ranges.
				if delivering {
					mu.Unlock()
					continue
				}
				delivering = true
				for !stop.Load() && next < len(parts) && outs[next] != nil {
					r := outs[next]
					outs[next] = nil
					mu.Unlock()
					perr := deliver(sink, r, o.Quota)
					mu.Lock()
					next++
					ready.Broadcast()
					if perr != nil {
						fail(perr)
						break
					}
				}
				delivering = false
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failErr
}

// batchHint reports the operator's batch-count hint, zero if none.
func batchHint(op Operator) int {
	if h, ok := op.(BatchHinter); ok {
		return h.BatchHint()
	}
	return 0
}

// claimCheck runs a morsel-claim hook, treating nil as pass.
func claimCheck(morsel func() error) error {
	if morsel == nil {
		return nil
	}
	return morsel()
}
