package physical

// Differential tests for the drain: Drain must deliver exactly the rows
// of a naive filter-and-project reference, in the same order; a sink
// stop must end the query early without error; a sink failure must
// abort with that error.

import (
	"errors"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// stopAfterSink collects rows until a limit, then stops the stream:
// the LIMIT-style consumer.
type stopAfterSink struct {
	rel   *storage.Relation
	limit int
}

func (s *stopAfterSink) Push(b *storage.Batch) error {
	if s.rel == nil {
		s.rel = storage.NewRelation()
	}
	s.rel.Append(b)
	if s.rel.Rows() >= s.limit {
		return ErrStopStream
	}
	return nil
}

// failAfterSink consumes batches until a limit, then fails the stream.
type failAfterSink struct {
	rows int
	fail error
}

func (s *failAfterSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	if s.rows > 256 {
		return s.fail
	}
	return nil
}

// The drain chain's residual filter and projection.
var (
	drainResidual = expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(120))
	drainOuts     = []expr.Expr{expr.NewArith(expr.Add, expr.Col("D.id"), expr.Int(1)), expr.Col("D.val")}
)

// drainChain builds the scan → filter → project chain used across
// these tests.
func drainChain(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr) Operator {
	t.Helper()
	s, err := NewRelScan(rel, names, kinds, pred)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(s, drainResidual)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []string{"id2", "v"}, drainOuts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDrainMatchesSerial is the core differential: the rows a drain
// delivers, coalesced, equal the serial reference — the naive filter
// of the whole chain's predicate, then the projection — row for row,
// in order.
func TestDrainMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rel, names, kinds := diffRel(rng, 24, 256)
	empty := storage.NewRelation()
	for _, r := range []*storage.Relation{rel, empty} {
		for _, pred := range diffPreds(rng) {
			kept := naiveFilter(t, r, names, kinds, expr.NewAnd(pred, drainResidual))
			want := naiveProject(t, kept, names, kinds, drainOuts)
			sink := &CollectSink{Rel: storage.NewRelation()}
			if err := Drain(drainChain(t, r, names, kinds, pred), sink, DrainOpts{}); err != nil {
				t.Fatal(err)
			}
			sameRelation(t, sink.Rel, want, pred.String())
		}
	}
}

// TestDrainEarlyStop stops the drain after a handful of rows: the
// delivered rows must be a prefix of the whole result and the call
// must report success.
func TestDrainEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rel, names, kinds := diffRel(rng, 32, 256)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	want, err := Collect(drainChain(t, rel, names, kinds, pred), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &stopAfterSink{limit: 10}
	if err := Drain(drainChain(t, rel, names, kinds, pred), sink, DrainOpts{}); err != nil {
		t.Fatal(err)
	}
	got := sink.rel
	if got.Rows() < 10 || got.Rows() >= want.Rows() {
		t.Fatalf("stopped after %d of %d rows, want >= 10 and fewer than all", got.Rows(), want.Rows())
	}
	// Prefix check: the delivered rows are the first rows of the whole
	// result.
	g, w := got.Flatten(), want.Flatten()
	for c := 0; c < w.Width(); c++ {
		for r := 0; r < g.Len(); r++ {
			if storage.ValueAt(g.Cols[c], r) != storage.ValueAt(w.Cols[c], r) {
				t.Fatalf("cell (%d,%d) = %v, want %v",
					r, c, storage.ValueAt(g.Cols[c], r), storage.ValueAt(w.Cols[c], r))
			}
		}
	}
}

// TestDrainPushError aborts the drain with a sink failure: the error
// must surface.
func TestDrainPushError(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rel, names, kinds := diffRel(rng, 32, 256)
	pred := expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)) // all pass
	boom := errors.New("client hung up")
	sink := &failAfterSink{fail: boom}
	if err := Drain(drainChain(t, rel, names, kinds, pred), sink, DrainOpts{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestDrainQuota collects under ceilings below the result size, each
// failing with a typed error: a ceiling of one byte trips on the first
// retained batch, three quarters of the result on a later one. The
// drain does the charging, so a retaining sink handed to Drain trips
// the same ceiling; a consuming sink under it succeeds and charges
// nothing.
func TestDrainQuota(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	rel, names, kinds := diffRel(rng, 128, 512)
	pred := expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)) // all pass
	chain := func() Operator { return drainChain(t, rel, names, kinds, pred) }
	whole, err := Collect(chain(), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := whole.MemSize() * 3 / 4
	for _, limit := range []int64{1, ceiling} {
		got, err := Collect(chain(), DrainOpts{Quota: storage.NewQuota(limit)})
		var qe *storage.QuotaError
		if !errors.As(err, &qe) || got != nil {
			t.Fatalf("limit %d: got %v, err = %v, want a *storage.QuotaError", limit, got, err)
		}
	}
	var qe *storage.QuotaError
	retained := &CollectSink{Rel: storage.NewRelation()}
	if err := Drain(chain(), retained, DrainOpts{Quota: storage.NewQuota(ceiling)}); !errors.As(err, &qe) {
		t.Fatalf("retaining sink over the ceiling: err = %v, want a *storage.QuotaError", err)
	}
	quota := storage.NewQuota(ceiling)
	sink := &failAfterSink{fail: nil}
	if err := Drain(chain(), sink, DrainOpts{Quota: quota}); err != nil {
		t.Fatalf("consuming sink under the ceiling: %v", err)
	}
	if sink.rows != whole.Rows() || quota.Used() != 0 {
		t.Fatalf("consumed %d rows (want %d) with %d bytes still charged", sink.rows, whole.Rows(), quota.Used())
	}
}

// twoBatchOp emits a selection batch followed by a contiguous one, so a
// single pull hands the drain two buffered batches (the coalesced rows
// of the first, flushed ahead of the second).
type twoBatchOp struct{ emitted int }

func (o *twoBatchOp) Names() []string       { return []string{"x"} }
func (o *twoBatchOp) Kinds() []storage.Kind { return []storage.Kind{storage.KindInt64} }

func (o *twoBatchOp) Next() (*storage.Batch, error) {
	if o.emitted == 2 {
		return nil, nil
	}
	o.emitted++
	bl := storage.NewBuilder(storage.KindInt64, 8)
	for i := 0; i < 8; i++ {
		bl.AppendAny(int64(i))
	}
	b := storage.NewBatch(bl.Finish())
	if o.emitted == 1 {
		return b.WithSel([]int32{1, 5}), nil
	}
	return b, nil
}

// TestLimitTruncatesBatch: Limit cuts the batch that crosses the limit
// (twoBatchOp's second, 8 rows past a limit of 5 with 2 already seen).
func TestLimitTruncatesBatch(t *testing.T) {
	out, err := Collect(NewLimit(&twoBatchOp{}, 5), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 5 {
		t.Fatalf("limit emitted %d rows, want 5", out.Rows())
	}
}

// firstPushSink drops the first batch it is pushed and returns err.
type firstPushSink struct{ err error }

func (s firstPushSink) Push(b *storage.Batch) error {
	return s.err
}

// TestDrainFirstPushFailureRecyclesRest fails or stops the sink on the
// first of two batches delivered together: the error (or the graceful
// stop) surfaces.
func TestDrainFirstPushFailureRecyclesRest(t *testing.T) {
	boom := errors.New("client hung up")
	for _, want := range []error{boom, ErrStopStream} {
		err := Drain(&twoBatchOp{}, firstPushSink{want}, DrainOpts{})
		if want == ErrStopStream {
			want = nil
		}
		if err != want {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
}
