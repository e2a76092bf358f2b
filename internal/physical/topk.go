package physical

import (
	"cmp"
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
// that ever rank get copied. Once n rows rank, a tight loop runs over
// the key slice against the n-th key alone, and that key goes down to
// the scan producing the key column (rankBound), which skips every
// batch whose zone map says none of its rows can rank. The result is
// row-for-row identical — including the order of key ties — to Sort
// followed by Limit, at O(n) memory instead of O(input).
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
	if acc.ints != nil || acc.floats != nil {
		acc.bound = findRankBound(t.in, t.keys[0].Col, t.keys[0].Desc)
	}
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
	// bound is where the ordered-insertion path publishes its k-th key,
	// nil when no scan below takes it.
	bound *rankBound
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

// before reports that key a ranks ahead of key b: the order of
// cmp.Compare (a NaN below every number, −0 equal to +0), reversed for
// a descending key. Sort orders by the same comparison.
func (t *numTop[T]) before(a, b T) bool {
	if t.desc {
		return cmp.Less(b, a)
	}
	return cmp.Less(a, b)
}

// offer ranks the n rows of a key column (through sel, when set),
// appending to idx the rows that enter the ranking; the caller copies
// exactly those into the candidate buffer, which holds stored rows
// already. A row tying with the k-th entry loses to it: the earlier
// arrival wins. Once the ranking is full, skip finds the next row that
// ranks, so the other rows cost one comparison each.
func (t *numTop[T]) offer(vals []T, sel []int32, n, stored int, idx []int32) []int32 {
	p := 0
	for ; p < n && len(t.ents) < t.k; p++ {
		t.ents = append(t.ents, numEnt[T]{})
		idx = t.insert(vals, rowAt(sel, p), stored, idx)
	}
	for p < n { // the ranking is full
		if p = t.skip(vals, sel, p, n, t.ents[t.k-1].v); p < n {
			idx = t.insert(vals, rowAt(sel, p), stored, idx)
			p++
		}
	}
	return idx
}

// rowAt is the base row of position p under sel.
func rowAt(sel []int32, p int) int {
	if sel != nil {
		return int(sel[p])
	}
	return p
}

// insert places row r's key into the ranking, whose last entry it
// overwrites, behind every entry it does not rank ahead of, and appends
// r to idx: the row is stored+len(idx) of the candidate buffer.
func (t *numTop[T]) insert(vals []T, r, stored int, idx []int32) []int32 {
	v, i := vals[r], len(t.ents)-1
	for ; i > 0 && t.before(v, t.ents[i-1].v); i-- {
		t.ents[i] = t.ents[i-1]
	}
	t.ents[i] = numEnt[T]{v, int32(stored + len(idx))}
	return append(idx, int32(r))
}

// skip returns the first position from p on (through sel, when set)
// whose key ranks ahead of thr, the k-th key, or n when none does. It is
// before(v, thr) over the raw key slice, one loop per direction and
// shape with thr in a register: against a thr that is no NaN, v ranks
// ahead descending when v > thr, and ascending when !(v >= thr), which
// holds for a NaN v.
func (t *numTop[T]) skip(vals []T, sel []int32, p, n int, thr T) int {
	switch {
	case thr != thr:
		for ; p < n && !t.before(vals[rowAt(sel, p)], thr); p++ {
		}
	case t.desc && sel == nil:
		for ; p < n && !(vals[p] > thr); p++ {
		}
	case t.desc:
		for ; p < n && !(vals[sel[p]] > thr); p++ {
		}
	case sel == nil:
		for ; p < n && vals[p] >= thr; p++ {
		}
	default:
		for ; p < n && vals[sel[p]] >= thr; p++ {
		}
	}
	return p
}

// kth returns the k-th key, if the ranking is full.
func (t *numTop[T]) kth() (T, bool) {
	if len(t.ents) < t.k {
		var zero T
		return zero, false
	}
	return t.ents[t.k-1].v, true
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
		if thr, full := a.ints.kth(); full {
			a.bound.publish(thr)
		}
	case a.floats != nil:
		idx = a.floats.offer(storage.Float64s(base.Cols[a.keys[0].Col]), sel, n, a.buf.Rows(), idx)
		if thr, full := a.floats.kth(); full && thr == thr {
			a.bound.publish(storage.FloatKey(thr))
		}
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
		return cmp.Compare(storage.Float64At(a, ai), storage.Float64At(b, bi))
	case storage.KindString:
		return cmp.Compare(storage.StringAt(a, ai), storage.StringAt(b, bi))
	default:
		return cmp.Compare(storage.Int64At(a, ai), storage.Int64At(b, bi))
	}
}

// rankBound is the k-th key of a TopK's ranking, in zone keys (see
// storage.Zone), published to the scan that produces the key column
// once the ranking is full. A row whose key does not rank ahead of the
// k-th can never enter the ranking, whose k-th key only improves, and a
// row equal to it loses the tie to the earlier arrival, so the scan
// skips a batch whose zone holds no other rows: descending when its Max
// is at most the key, ascending when its Min is at least the key.
type rankBound struct {
	col  int // the scan's output column
	desc bool
	set  bool
	key  int64
}

// publish records the k-th key; a nil bound, one no scan took, ignores
// it.
func (b *rankBound) publish(key int64) {
	if b != nil {
		b.key, b.set = key, true
	}
}

// skips reports that no row of a batch with zone z can rank.
func (b *rankBound) skips(z storage.Zone) bool {
	switch {
	case !b.set || !z.Ok:
		return false
	case b.desc:
		return z.Max <= b.key
	default:
		return z.Min >= b.key
	}
}

// rankBounder is implemented by operators through which a TopK's bound
// on output column col reaches the scan producing that column: the
// scan itself, and the operators that pass the column's rows through
// with their values unchanged — Profiled, Filter, a Project of a bare
// column and either side of an inner HashJoin. rankBound returns the
// scan's bound, nil when there is none.
type rankBounder interface {
	rankBound(col int, desc bool) *rankBound
}

// findRankBound asks op for the bound of its output column col.
func findRankBound(op Operator, col int, desc bool) *rankBound {
	if rb, ok := op.(rankBounder); ok {
		return rb.rankBound(col, desc)
	}
	return nil
}
