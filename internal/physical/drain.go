package physical

import (
	"errors"

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
// (scan work not yet pulled is never done) and Drain reports success.
// Any other error aborts the query with that error.
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

// DrainOpts configures Drain and Collect; the zero value is an
// unchecked, unmetered drain.
type DrainOpts struct {
	// Check runs before every pull and aborts the drain when it errors —
	// the executor passes its context's Err for cancellation between
	// batches.
	Check func() error
	// Morsel, when non-nil, runs once before the drain's first pull and
	// aborts the drain when it errors. The executor uses it for the
	// runaway-query watchdog and the exec.morsel fault point: the one
	// place injected stalls land.
	Morsel func() error
	// Quota, when non-nil, is charged by the drain for every batch it
	// pushes to a sink that retains it (RetainingSink).
	Quota *storage.Quota
}

// RetainingSink is a StreamSink that may keep what it is pushed until
// the drain ends — a collected relation, a buffered response body —
// and reports through Retains whether it does.
type RetainingSink interface {
	StreamSink
	Retains() bool
}

// Breaker is implemented by pipeline breakers — hash-join build,
// aggregation, sort, top-k — that drain an input internally. The
// executor hands them the query's drain options before the first Next:
// the cancellation check that stops the internal drain at the next
// batch once the query's deadline expires, and the per-query ceiling
// its materialization charges (aggregation and top-k keep bounded state
// and charge nothing). They ignore Morsel: the hook, with its fault
// point, belongs to top-level drains, so fault counts stay one per
// top-level drain; an internal drain checks cancellation instead.
type Breaker interface {
	SetDrain(o DrainOpts)
}

// Drain pulls op to completion into sink, on the calling goroutine.
// Selection-carrying batches over fixed-width schemas are coalesced into
// full batches instead of gathered one by one; contiguous batches pass
// through untouched (flushing first, to preserve row order). Batches
// reach the sink as soon as they form, so a slow (or backpressured)
// sink suspends the scan instead of buffering the result.
func Drain(op Operator, sink StreamSink, o DrainOpts) error {
	var err error
	if o.Morsel != nil {
		err = o.Morsel()
	}
	if r, ok := sink.(RetainingSink); !ok || !r.Retains() {
		o.Quota = nil // a sink that consumes its batches costs nothing
	}
	if err == nil {
		err = pullAll(op, sink, o)
	}
	if err == ErrStopStream {
		return nil
	}
	return err
}

// Collect drains op into a relation pre-sized from the operator's
// batch-count hint, charging o.Quota for every batch it retains.
func Collect(op Operator, o DrainOpts) (*storage.Relation, error) {
	sink := CollectSink{Rel: storage.NewRelationWithCap(batchHint(op))}
	if err := Drain(op, &sink, o); err != nil {
		return nil, err
	}
	return sink.Rel, nil
}

// CollectSink accumulates a drain into Rel: the sink that makes the
// result materialized. The drain charges every batch to its quota, never
// refunded: the engine loses sight of a result once it is handed over.
type CollectSink struct {
	Rel *storage.Relation
}

// Push implements StreamSink.
func (c *CollectSink) Push(b *storage.Batch) error {
	c.Rel.Append(b)
	return nil
}

// Retains implements RetainingSink.
func (c *CollectSink) Retains() bool { return true }

// pullAll pulls op to exhaustion into sink. The coalescer fills a
// scratch relation; completed batches are taken out of it, charged to
// o.Quota and pushed as soon as they form, so at most one batch's worth
// of rows is buffered at any time. On an error the batches after the
// failed push are dropped. A sink stop surfaces as ErrStopStream.
func pullAll(op Operator, sink StreamSink, o DrainOpts) error {
	coal := storage.NewCoalescer(op.Kinds())
	scratch := storage.NewRelation()
	for {
		var (
			b   *storage.Batch
			err error
		)
		if o.Check != nil {
			err = o.Check()
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
			for _, out := range scratch.TakeBatches() {
				if o.Quota != nil {
					err = o.Quota.Charge(out.MemSize())
				}
				if err == nil {
					err = sink.Push(out)
				}
				if err != nil {
					break
				}
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

// batchHint reports the operator's batch-count hint, zero if none.
func batchHint(op Operator) int {
	if h, ok := op.(BatchHinter); ok {
		return h.BatchHint()
	}
	return 0
}
