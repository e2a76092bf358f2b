package physical

import (
	"fmt"

	"sommelier/internal/storage"
)

// TopK emits the first n rows of its input under the sort keys: the
// fused execution of ORDER BY + LIMIT produced by the topk optimizer
// rule. Unlike Sort (which materializes the whole input before
// ordering it), TopK keeps a bounded candidate buffer of at most
// ~2n rows: each incoming batch is filtered against
// the current n-th best row, survivors are copied into the buffer, and
// the buffer is compacted back to n rows by a stable partial sort
// whenever it doubles. A single numeric key with a small n — ORDER BY
// D.sample_value DESC LIMIT 10 — skips the sorts: rows are compared on
// the raw key slice and inserted into an ordered array of n entries
// (numTop), so the threshold tightens row by row and only the few rows
// that ever rank get copied. The result is row-for-row identical —
// including the order of key ties — to Sort followed by Limit, at O(n)
// memory instead of O(input).
type TopK struct {
	in    Operator
	keys  []SortKey
	n     int
	drain DrainOpts
	done  bool
}

// NewTopK validates the key positions, as NewSort does.
func NewTopK(in Operator, keys []SortKey, n int) (*TopK, error) {
	if n < 0 {
		return nil, fmt.Errorf("physical: negative top-k limit %d", n)
	}
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(in.Names()) {
			return nil, fmt.Errorf("physical: top-k key %d out of range", k.Col)
		}
		switch in.Kinds()[k.Col] {
		case storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindString:
		default:
			return nil, fmt.Errorf("physical: cannot order on %v", in.Kinds()[k.Col])
		}
	}
	return &TopK{in: in, keys: keys, n: n}, nil
}

// SetDrain implements Breaker: the cancellation check runs before every
// pulled batch. The O(n) buffer charges no quota.
func (t *TopK) SetDrain(o DrainOpts) { t.drain = o }

// Names implements Operator.
func (t *TopK) Names() []string { return t.in.Names() }

// Kinds implements Operator.
func (t *TopK) Kinds() []storage.Kind { return t.in.Kinds() }

// BatchHint implements BatchHinter.
func (t *TopK) BatchHint() int { return 1 }

// Next implements Operator.
func (t *TopK) Next() (*storage.Batch, error) {
	if t.done {
		return nil, nil
	}
	t.done = true
	if t.n == 0 {
		return nil, nil
	}
	acc := newTopkAcc(t.keys, t.in.Kinds(), t.n)
	if err := acc.feed(t.in, t.drain.Check); err != nil {
		return nil, err
	}
	return acc.result(), nil
}

// topkAcc is one bounded candidate buffer: rows that may still be
// among the first k under the keys. Candidates are stored as copies
// (the O(k) working set of the operator), so an incoming batch is dead
// once filtered.
type topkAcc struct {
	keys []SortKey
	k    int
	buf  *storage.Relation
	// ints / floats is the ordered-insertion state of the single
	// numeric key, small k path (at most one is set); every other shape
	// filters against thresh and sorts at compaction.
	ints   *numTop[int64]
	floats *numTop[float64]
	// thresh is the current k-th best row — row threshRow of the last
	// compacted batch — once at least k candidates have been seen. A
	// later row can only displace it with strictly smaller keys (any
	// tie loses to the earlier arrival), so batches are pre-filtered
	// against it.
	thresh    *storage.Batch
	threshRow int
	// scratch is the reusable survivor-index buffer of add.
	scratch []int32
}

// topkInsertMax bounds the k served by ordered insertion, whose cost
// per ranking row is linear in k.
const topkInsertMax = 256

func newTopkAcc(keys []SortKey, kinds []storage.Kind, k int) *topkAcc {
	a := &topkAcc{keys: keys, k: k, buf: storage.NewRelation()}
	if len(keys) == 1 && k <= topkInsertMax {
		switch kinds[keys[0].Col] {
		case storage.KindInt64, storage.KindTime:
			a.ints = &numTop[int64]{desc: keys[0].Desc, k: k}
		case storage.KindFloat64:
			a.floats = &numTop[float64]{desc: keys[0].Desc, k: k}
		}
	}
	return a
}

// numTop is the ranking of the single-numeric-key path: at most k
// entries, best first, equal keys in arrival order, each naming its row
// in the candidate buffer.
type numTop[T int64 | float64] struct {
	desc bool
	k    int
	ents []numEnt[T]
}

type numEnt[T int64 | float64] struct {
	v   T
	row int32
}

func (t *numTop[T]) before(a, b T) bool {
	if t.desc {
		return a > b
	}
	return a < b
}

// offer ranks the n rows of a key column (through sel, when set),
// appending to idx the rows that enter the ranking; the caller copies
// exactly those into the candidate buffer, which holds stored rows
// already. A row tying with the k-th entry loses to it: the earlier
// arrival wins.
func (t *numTop[T]) offer(vals []T, sel []int32, n, stored int, idx []int32) []int32 {
	for p := 0; p < n; p++ {
		r := p
		if sel != nil {
			r = int(sel[p])
		}
		v := vals[r]
		full := len(t.ents) == t.k
		if full && !t.before(v, t.ents[t.k-1].v) {
			continue
		}
		if !full {
			t.ents = append(t.ents, numEnt[T]{})
		}
		i := len(t.ents) - 1
		for ; i > 0 && t.before(v, t.ents[i-1].v); i-- {
			t.ents[i] = t.ents[i-1]
		}
		t.ents[i] = numEnt[T]{v, int32(stored + len(idx))}
		idx = append(idx, int32(r))
	}
	return idx
}

// order returns the candidate-buffer rows of the ranking, best first,
// and renumbers the entries for a buffer holding just those, in order.
func (t *numTop[T]) order() []int32 {
	idx := make([]int32, len(t.ents))
	for i := range t.ents {
		idx[i], t.ents[i].row = t.ents[i].row, int32(i)
	}
	return idx
}

// compactAt is the buffer size that triggers compaction, relative to
// k: the usual doubling trade between sort frequency and memory.
func (a *topkAcc) compactAt() int {
	at := 2 * a.k
	if at < storage.BatchSize {
		at = storage.BatchSize
	}
	return at
}

// feed consumes op to exhaustion, consulting check (may be nil)
// before every pull.
func (a *topkAcc) feed(op Operator, check func() error) error {
	for {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			a.compact()
			return nil
		}
		a.add(b)
	}
}

// add filters one input batch against the ranking so far and copies
// the surviving rows into the buffer.
func (a *topkAcc) add(b *storage.Batch) {
	base, sel := b.Base(), b.Sel()
	n := b.Len()
	idx := a.scratch[:0]
	switch {
	case a.ints != nil:
		idx = a.ints.offer(storage.Int64s(base.Cols[a.keys[0].Col]), sel, n, a.buf.Rows(), idx)
	case a.floats != nil:
		idx = a.floats.offer(storage.Float64s(base.Cols[a.keys[0].Col]), sel, n, a.buf.Rows(), idx)
	default:
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = int(sel[i])
			}
			if a.thresh != nil && a.cmpRows(base, r, a.thresh, a.threshRow) >= 0 {
				continue
			}
			idx = append(idx, int32(r))
		}
	}
	a.scratch = idx[:0]
	if len(idx) > 0 {
		a.buf.Append(base.Gather(idx))
	}
	if a.buf.Rows() >= a.compactAt() {
		a.compact()
	}
}

// compact shrinks the buffer to the first k rows under the keys, in
// order: read off the ranking on the ordered-insertion path, by a
// stable sort of a row permutation otherwise. Stability carries the
// arrival order of key ties through every compaction: the buffer is
// always a key-sorted sequence whose ties are in arrival order, and
// newly appended rows arrive later than everything already buffered, so
// repeated stable sorts preserve the global first-k-ties-win semantics
// of Sort+Limit.
func (a *topkAcc) compact() {
	if a.buf.Rows() == 0 {
		return
	}
	flat := a.buf.Flatten()
	var idx []int32
	switch {
	case a.ints != nil:
		idx = a.ints.order()
	case a.floats != nil:
		idx = a.floats.order()
	default:
		if idx = stableOrder(flat, a.keys); len(idx) > a.k {
			idx = idx[:a.k]
		}
	}
	top := flat.Gather(idx)
	a.buf = storage.NewRelation()
	a.buf.Append(top)
	if top.Len() >= a.k {
		a.thresh, a.threshRow = top, a.k-1
	}
}

// result returns the compacted candidates (at most k rows, ordered),
// nil when empty. Valid only after feed/compact.
func (a *topkAcc) result() *storage.Batch {
	if a.buf.Rows() == 0 {
		return nil
	}
	return a.buf.Batches()[0]
}

// cmpRows orders row ra of a against row rb of b under the keys,
// ascending/descending applied per key: <0 when the a-row sorts first.
func (a *topkAcc) cmpRows(ba *storage.Batch, ra int, bb *storage.Batch, rb int) int {
	for _, k := range a.keys {
		c := cmpColsAt(ba.Cols[k.Col], ra, bb.Cols[k.Col], rb)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// cmpColsAt compares position ai of column a with position bi of
// column b; the two columns hold the same kind (same output schema),
// but an input batch's column may be run-shaped where the candidate
// buffer's is plain.
func cmpColsAt(a storage.Column, ai int, b storage.Column, bi int) int {
	switch a.Kind() {
	case storage.KindFloat64:
		return cmpOrd(storage.Float64At(a, ai), storage.Float64At(b, bi))
	case storage.KindString:
		return cmpOrd(storage.StringAt(a, ai), storage.StringAt(b, bi))
	default:
		return cmpOrd(storage.Int64At(a, ai), storage.Int64At(b, bi))
	}
}
