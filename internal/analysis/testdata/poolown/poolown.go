// Package poolown is the golden fixture for the poolown analyzer.
// Every // want comment marks a deliberate ownership-protocol
// violation; the functions without one are the protocol followed
// correctly and must stay diagnostic-free — removing a PutBatch from
// any of them fails the suite.
package poolown

import (
	"errors"

	"sommelier/internal/storage"
)

var errBoom = errors.New("boom")

func ints() storage.Column { return storage.NewInt64Column([]int64{1, 2, 3}) }

// leakOnError releases only on the happy path.
func leakOnError(fail bool) error {
	b := storage.NewPooledBatch(ints()) // want "pooled value \"b\" from NewPooledBatch is not released on every path"
	if fail {
		return errBoom
	}
	storage.PutBatch(b)
	return nil
}

// discarded drops the fresh batch on the floor.
func discarded() {
	storage.NewPooledBatch(ints()) // want "result of NewPooledBatch is discarded"
}

// doubleRelease returns the same batch to the pool twice.
func doubleRelease() {
	b := storage.NewPooledBatch(ints())
	storage.PutBatch(b)
	storage.PutBatch(b) // want "pooled value \"b\" may already be released here"
}

// useAfterRelease reads a batch whose memory may already be recycled.
func useAfterRelease() int {
	b := storage.NewPooledBatch(ints())
	storage.PutBatch(b)
	return b.Len() // want "use of pooled value \"b\" after it may have been released"
}

// overwritten loses the only handle that could release the first batch.
func overwritten() {
	b := storage.NewPooledBatch(ints())
	b = storage.NewPooledBatch(ints()) // want "pooled value \"b\" is overwritten before it is released"
	storage.PutBatch(b)
}

// detachLeak keeps the detached base without ever returning it.
func detachLeak(b *storage.Batch) int {
	base, sel := b.DetachSel() // want "pooled value \"base\" from DetachSel is not released on every path"
	storage.PutSel(sel)
	return base.Len()
}

// cleanPaired releases on every path.
func cleanPaired(wide bool) {
	b := storage.NewPooledBatch(ints())
	if wide {
		storage.PutBatch(b)
		return
	}
	storage.PutBatch(b)
}

// cleanEscape moves ownership to the caller.
func cleanEscape() *storage.Batch {
	b := storage.NewPooledBatch(ints())
	return b
}

// cleanDisown dissolves pool ownership; the value stays usable.
func cleanDisown() int {
	b := storage.NewPooledBatch(ints())
	storage.DisownBatch(b)
	return b.Len()
}

// cleanLoop recycles every batch a loop produces.
func cleanLoop(n int) {
	for i := 0; i < n; i++ {
		b := storage.NewPooledBatch(ints())
		storage.PutBatch(b)
	}
}

// suppressed documents a deliberate protocol escape.
func suppressed() {
	//sommelier:ownership-transferred a finalizer registered elsewhere recycles this batch
	b := storage.NewPooledBatch(ints())
	_ = b
}

// faultLeak mirrors the fault-injection idiom: an injected error
// branch (inject stands in for fault.Injector.Check) returns early and
// drops the pooled batch.
func faultLeak(inject func() error) error {
	b := storage.NewPooledBatch(ints()) // want "pooled value \"b\" from NewPooledBatch is not released on every path"
	if err := inject(); err != nil {
		return err
	}
	storage.PutBatch(b)
	return nil
}

// cleanFaultPath releases the batch on the injected-error branch too.
func cleanFaultPath(inject func() error) error {
	b := storage.NewPooledBatch(ints())
	if err := inject(); err != nil {
		storage.PutBatch(b)
		return err
	}
	storage.PutBatch(b)
	return nil
}

// sink mimics physical.StreamSink: Push takes ownership of the batch.
type sink interface {
	Push(b *storage.Batch) error
}

// cleanSinkTransfer hands the batch to a sink; the push is the one
// consumer, even on error.
func cleanSinkTransfer(s sink) error {
	b := storage.NewPooledBatch(ints())
	return s.Push(b)
}

// sinkDoubleRelease recycles a batch the sink already owns.
func sinkDoubleRelease(s sink) {
	b := storage.NewPooledBatch(ints())
	_ = s.Push(b)
	storage.PutBatch(b) // want "pooled value \"b\" may already be released here"
}

// sinkUseAfterPush reads rows the sink may have recycled.
func sinkUseAfterPush(s sink) int {
	b := storage.NewPooledBatch(ints())
	_ = s.Push(b)
	return b.Len() // want "use of pooled value \"b\" after it may have been released"
}

// decodeDropped drops a decoded relation on an error branch: not a
// leak, since the segment decoder produces no pooled memory (a chunk's
// memory belongs to its chunk store).
func decodeDropped(body []byte, fail bool) error {
	rel, err := storage.DecodeRelation(body)
	if err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	_ = rel.Rows()
	return nil
}
