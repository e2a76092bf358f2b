package physical

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sommelier/internal/storage"
)

// HashJoin is an inner equi-join. The left input is materialized as the
// build side — in the plans this package serves, the left input is
// always the (small) metadata composite, while the right side streams
// the (large) actual data, so build-left is the right default.
//
// Build and probe resolve keys through one keyIndex, so the probe is
// run-aware: it hashes the first row of every run of equal adjacent
// keys (actual data arrives clustered by chunk and segment) and carries
// the match on as one run, composing with a deferred selection on the
// probe batch. When no build key repeats — the foreign-key→primary-key
// shape of every dataview query — each probe row matches at most one
// build row, and the probe batch passes through as a selection view
// with each needed build-side column laid under it as a run column, a
// run per matched key run (no per-row work, no copy of the probe side);
// a GROUP BY on such a column then folds those runs whole. Duplicate
// build keys fall back to gathering both sides. Either way only the
// columns the parent reads (out) are emitted.
//
// A join may carry a time band (SetBand): a pair is emitted only if the
// time column of one side lies in (lo − slack, hi) of the other side's
// bound columns. A banded join always gathers, testing each pair before
// it is emitted.
type HashJoin struct {
	left, right   Operator
	leftK, rightK []int
	// out lists the emitted columns as positions in the concatenated
	// left++right schema.
	out   []int
	names []string
	kinds []storage.Kind
	// fastKey marks keys over int64-backed columns only, resolved
	// without composite index.Key construction; differential tests clear
	// it to force the composite path.
	fastKey bool
	// drain configures the build drain (SetDrain): its cancellation
	// check and the quota the build side is charged to.
	drain DrainOpts
	// band is the time band, nil for none.
	band *joinBand

	built     bool
	buildData *storage.Batch
	// table is the build table, nil when the build side is empty or
	// the probe side is exhausted (it then went back to its pool).
	table *joinTable
	// The probe's buffers, reused on every batch: the selection it
	// emits; the matched build rows and their run ends (runCols); the
	// build and probe row of every pair (gatherCols).
	sel, rows, rowEnds, leftIdx, rightIdx []int32
}

// joinTable is the build table: head[id] is the first build row of key
// id and next[r] the build row after r with the same key (-1 ends the
// chain), so a key's rows chain in build-row order. Tables are pooled
// with their slices, so a steady-state join build allocates nothing.
type joinTable struct {
	x          keyIndex
	head, next []int32
	// unique reports that no key has two build rows; key ids, assigned
	// in build-row order, then ARE the build-row indexes.
	unique bool
	// first and last hold, per row of a banded join's bound side —
	// every build row, or the probe batch's base rows —, the times its
	// band admits: uint64(t − first[r]) ≤ last[r].
	first []int64
	last  []uint64
}

// joinBand is a HashJoin's time band: the positions in build++probe of
// the time column t and of the bound columns lo and hi, which sit on
// the other input, all int64-backed; and the slack (≥ 1).
type joinBand struct {
	t, lo, hi int
	slack     int64
}

// setBand fills first and last from the bound columns lo and hi.
func (t *joinTable) setBand(lo, hi []int64, slack int64) {
	t.first = slices.Grow(t.first[:0], len(lo))[:len(lo)]
	t.last = slices.Grow(t.last[:0], len(lo))[:len(lo)]
	for r := range lo {
		t.first[r], t.last[r] = bandRange(lo[r], hi[r], slack)
	}
}

// bandRange returns the probe times the open interval (lo − slack, hi)
// admits modulo 2^64, as those t with uint64(t − first) ≤ last. Wrapping
// arithmetic keeps it exact near both ends of int64. An interval with
// hi ≤ lo bounds nothing and admits every t, as does one of 2^64 or
// more integers.
func bandRange(lo, hi, slack int64) (first int64, last uint64) {
	first = lo - slack + 1
	if hi <= lo {
		return first, math.MaxUint64
	}
	// The interval holds hi − lo + slack − 1 integers; 0 < hi − lo < 2^64.
	span, extra := uint64(hi-lo)-1, uint64(slack-1)
	if span > math.MaxUint64-extra {
		return first, math.MaxUint64
	}
	return first, span + extra
}

var joinTablePool sync.Pool

// newJoinTable indexes the key columns of the flattened build side.
func newJoinTable(ints bool, data *storage.Batch, cols []int) (*joinTable, error) {
	t, _ := joinTablePool.Get().(*joinTable)
	if t == nil {
		t = &joinTable{}
	}
	t.x.reset(ints, len(cols))
	t.x.presize(data.Len())
	ids, ends, err := t.x.resolve(data, cols, nil, true, false)
	if err != nil {
		joinTablePool.Put(t)
		return nil, err
	}
	t.head = slices.Grow(t.head[:0], t.x.len())[:t.x.len()]
	for i := range t.head {
		t.head[i] = -1
	}
	t.next = slices.Grow(t.next[:0], data.Len())[:data.Len()]
	t.unique = true
	for k := len(ids) - 1; k >= 0; k-- {
		id, lo := ids[k], runStart(ends, k)
		for r := ends[k] - 1; r >= lo; r-- {
			t.next[r] = t.head[id]
			t.unique = t.unique && t.head[id] < 0
			t.head[id] = r
		}
	}
	return t, nil
}

// runStart is the first position of run k of a resolve result.
func runStart(ends []int32, k int) int32 {
	if k == 0 {
		return 0
	}
	return ends[k-1]
}

// SetBand restricts the join to pairs whose time column t lies in
// (lo − slack, hi) of the bound columns lo and hi, modulo 2^64 (bounds
// with hi ≤ lo admit every time). The columns are positions in the
// concatenated build++probe schema, lo and hi on one input and t on the
// other; slack must be positive.
func (j *HashJoin) SetBand(t, lo, hi int, slack int64) error {
	kinds := append(slices.Clone(j.left.Kinds()), j.right.Kinds()...)
	nl := len(j.left.Kinds())
	side := func(c int) int {
		if c < 0 || c >= len(kinds) || !isIntKeyKind(kinds[c]) {
			return -1
		}
		return min(c/nl, 1)
	}
	if side(lo) < 0 || side(lo) != side(hi) || side(t) != 1-side(lo) {
		return fmt.Errorf("physical: band columns %d, %d, %d are not int64-backed, time and bounds on opposite inputs", t, lo, hi)
	}
	if slack < 1 {
		return fmt.Errorf("physical: band slack %d is not positive", slack)
	}
	j.band = &joinBand{t: t, lo: lo, hi: hi, slack: slack}
	return nil
}

// SetDrain implements Breaker for the build-side drain, which checks
// cancellation and never runs the Morsel hook.
func (j *HashJoin) SetDrain(o DrainOpts) { o.Morsel = nil; j.drain = o }

// NewHashJoin joins left and right on pairwise-equal key columns given
// as column positions, emitting every column of both sides.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int) (*HashJoin, error) {
	return NewHashJoinCols(left, right, leftKeys, rightKeys, nil)
}

// NewHashJoinCols is NewHashJoin emitting only the columns at out,
// positions in the concatenated left++right schema (nil emits all): the
// optimizer's projection pruning carried through the join.
func NewHashJoinCols(left, right Operator, leftKeys, rightKeys, out []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("physical: join needs matching, non-empty key lists")
	}
	lk, rk := left.Kinds(), right.Kinds()
	fast := len(leftKeys) <= len(intKey{})
	for i := range leftKeys {
		a, b := lk[leftKeys[i]], rk[rightKeys[i]]
		if !joinComparable(a, b) {
			return nil, fmt.Errorf("physical: join key %d kinds %v vs %v", i, a, b)
		}
		fast = fast && isIntKeyKind(a) && isIntKeyKind(b)
	}
	allNames := append(append([]string{}, left.Names()...), right.Names()...)
	allKinds := append(append([]storage.Kind{}, lk...), rk...)
	j := &HashJoin{
		left: left, right: right,
		leftK: leftKeys, rightK: rightKeys,
		out: out, names: allNames, kinds: allKinds,
		fastKey: fast,
	}
	if out == nil {
		j.out = make([]int, len(allNames))
		for i := range j.out {
			j.out[i] = i
		}
		return j, nil
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("physical: join must emit a column to carry its row count")
	}
	j.names, j.kinds = make([]string, len(out)), make([]storage.Kind, len(out))
	for i, o := range out {
		if o < 0 || o >= len(allNames) {
			return nil, fmt.Errorf("physical: join output column %d out of range", o)
		}
		j.names[i], j.kinds[i] = allNames[o], allKinds[o]
	}
	return j, nil
}

func joinComparable(a, b storage.Kind) bool {
	if a == b {
		return true
	}
	return isIntKeyKind(a) && isIntKeyKind(b)
}

// isIntKeyKind reports kinds backed by an int64 slice, eligible for the
// specialized hash paths.
func isIntKeyKind(k storage.Kind) bool { return k == storage.KindInt64 || k == storage.KindTime }

// Names implements Operator.
func (j *HashJoin) Names() []string { return j.names }

// Kinds implements Operator.
func (j *HashJoin) Kinds() []storage.Kind { return j.kinds }

func (j *HashJoin) build() error {
	rel, err := Collect(j.left, j.drain)
	if err != nil {
		return err
	}
	j.buildData = rel.Flatten()
	if j.buildData.Len() > 0 {
		if j.table, err = newJoinTable(j.fastKey, j.buildData, j.leftK); err != nil {
			return err
		}
		if b := j.band; b != nil && b.lo < len(j.buildData.Cols) {
			j.table.setBand(storage.Int64s(j.buildData.Cols[b.lo]), storage.Int64s(j.buildData.Cols[b.hi]), b.slack)
		}
	}
	j.built = true
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*storage.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	return j.probe()
}

// constHinter is implemented by scans that can tell from their zone
// maps that the batch they last returned holds a single value in each
// of the given columns.
type constHinter interface {
	lastConst(cols []int) bool
}

// probe probes batches pulled from the right input against the build
// table; the exhausted probe side recycles the pooled table.
func (j *HashJoin) probe() (*storage.Batch, error) {
	if j.table == nil { // empty build side, or probed to the end
		return nil, nil
	}
	for {
		rb, err := j.right.Next()
		if err != nil {
			return nil, err
		}
		if rb == nil {
			joinTablePool.Put(j.table)
			j.table = nil
			return nil, nil
		}
		base, sel := rb.Base(), rb.Sel()
		ch, ok := j.right.(constHinter)
		constant := ok && j.fastKey && ch.lastConst(j.rightK)
		ids, ends, err := j.table.x.resolve(base, j.rightK, sel, false, constant)
		if err != nil {
			return nil, err
		}
		var cols []storage.Column
		if j.table.unique && j.band == nil {
			cols, sel = j.runCols(cols, base, sel, ids, ends)
		} else {
			cols, sel = j.gatherCols(cols, base, sel, ids, ends)
		}
		if len(cols) == 0 {
			continue
		}
		out := &storage.Batch{Cols: cols}
		if sel != nil {
			out = out.WithSel(sel)
		}
		return out, nil
	}
}

// runCols builds the output of a probe batch against a table without
// duplicate keys, where the key ids of the runs (ids, ends) are the
// matched build rows themselves. The probe columns pass through under a
// selection of the matched rows (the input's own, nil included, when
// every run matched). Each needed build column is emitted as a run
// column over the probe batch's base rows: one run per matched key run,
// stretched over the rows after it up to the next matched run's first
// row (and the first one back to row 0), so every base row — unselected
// and unmatched ones included — holds a readable build value. Appends
// the columns to cols and returns them with that selection; no columns
// when nothing matched.
func (j *HashJoin) runCols(cols []storage.Column, base *storage.Batch, sel, ids, ends []int32) ([]storage.Column, []int32) {
	rows, rowEnds := storage.GrowSel(j.rows, len(ids)), storage.GrowSel(j.rowEnds, len(ids))
	matched := 0
	for k, id := range ids {
		if id >= 0 {
			matched += int(ends[k] - runStart(ends, k))
			if len(rows) == 0 || rows[len(rows)-1] != id {
				rows, rowEnds = append(rows, id), append(rowEnds, 0)
			}
		}
		if len(rowEnds) > 0 {
			rowEnds[len(rowEnds)-1] = int32(at(sel, int(ends[k])-1)) + 1
		}
	}
	j.rows, j.rowEnds = rows, rowEnds
	if matched == 0 {
		return cols, nil
	}
	rowEnds[len(rowEnds)-1] = int32(base.Len())
	nl := len(j.buildData.Cols)
	for _, o := range j.out {
		if o < nl {
			cols = append(cols, storage.GatherRuns(j.buildData.Cols[o], rows, rowEnds))
		} else {
			cols = append(cols, base.Cols[o-nl])
		}
	}
	n := int(ends[len(ends)-1])
	if matched == n {
		return cols, sel
	}
	outSel := storage.GrowSel(j.sel, matched)
	for k, id := range ids {
		if id < 0 {
			continue
		}
		for p := runStart(ends, k); p < ends[k]; p++ {
			outSel = append(outSel, int32(at(sel, int(p))))
		}
	}
	j.sel = outSel
	return cols, outSel
}

// gatherCols builds the output of a probe batch against a table with
// duplicate keys, or of a banded join: every (probe row, build row)
// pair (in the band), both sides gathered into new columns, which need
// no selection. Appends the columns to cols; no columns when nothing
// matched.
func (j *HashJoin) gatherCols(cols []storage.Column, base *storage.Batch, sel, ids, ends []int32) ([]storage.Column, []int32) {
	leftIdx, rightIdx := storage.GrowSel(j.leftIdx, base.Len()), storage.GrowSel(j.rightIdx, base.Len())
	if j.band == nil {
		leftIdx, rightIdx = j.table.pairs(leftIdx, rightIdx, sel, ids, ends)
	} else {
		leftIdx, rightIdx = j.bandPairs(leftIdx, rightIdx, sel, ids, ends, base)
	}
	j.leftIdx, j.rightIdx = leftIdx, rightIdx
	if len(leftIdx) > 0 {
		nl := len(j.buildData.Cols)
		for _, o := range j.out {
			if o < nl {
				cols = append(cols, j.buildData.Cols[o].Gather(leftIdx))
			} else {
				cols = append(cols, base.Cols[o-nl].Gather(rightIdx))
			}
		}
	}
	return cols, nil
}

// pairs appends every (build row, probe row) pair of the probe key runs
// (ids, ends) over the rows sel selects.
func (t *joinTable) pairs(leftIdx, rightIdx, sel, ids, ends []int32) ([]int32, []int32) {
	for k, id := range ids {
		if id < 0 {
			continue
		}
		for p := runStart(ends, k); p < ends[k]; p++ {
			r := int32(at(sel, int(p)))
			for lr := t.head[id]; lr >= 0; lr = t.next[lr] {
				leftIdx = append(leftIdx, lr)
				rightIdx = append(rightIdx, r)
			}
		}
	}
	return leftIdx, rightIdx
}

// bandPairs is pairs keeping only the pairs in the band: the build
// rows' bands were computed at build time, or the probe batch's are
// computed now over its base rows.
func (j *HashJoin) bandPairs(leftIdx, rightIdx, sel, ids, ends []int32, base *storage.Batch) ([]int32, []int32) {
	b, t, nl := j.band, j.table, len(j.buildData.Cols)
	if b.lo < nl {
		ts := storage.Int64s(base.Cols[b.t-nl])
		for k, id := range ids {
			if id < 0 {
				continue
			}
			for p := runStart(ends, k); p < ends[k]; p++ {
				r := int32(at(sel, int(p)))
				v := ts[r]
				for lr := t.head[id]; lr >= 0; lr = t.next[lr] {
					if uint64(v-t.first[lr]) <= t.last[lr] {
						leftIdx = append(leftIdx, lr)
						rightIdx = append(rightIdx, r)
					}
				}
			}
		}
		return leftIdx, rightIdx
	}
	t.setBand(storage.Int64s(base.Cols[b.lo-nl]), storage.Int64s(base.Cols[b.hi-nl]), b.slack)
	ts := storage.Int64s(j.buildData.Cols[b.t])
	for k, id := range ids {
		if id < 0 {
			continue
		}
		for p := runStart(ends, k); p < ends[k]; p++ {
			r := int32(at(sel, int(p)))
			first, last := t.first[r], t.last[r]
			for lr := t.head[id]; lr >= 0; lr = t.next[lr] {
				if uint64(ts[lr]-first) <= last {
					leftIdx = append(leftIdx, lr)
					rightIdx = append(rightIdx, r)
				}
			}
		}
	}
	return leftIdx, rightIdx
}

// CrossJoin produces the Cartesian product of its inputs; the planner
// emits it only under rule R2 (joining disconnected metadata
// components), so inputs are small.
type CrossJoin struct {
	left, right Operator
	names       []string
	kinds       []storage.Kind

	built    bool
	leftData *storage.Batch
	rightRel *storage.Relation
	li       int
	ri       int
}

// NewCrossJoin builds the product operator.
func NewCrossJoin(left, right Operator) *CrossJoin {
	return &CrossJoin{
		left: left, right: right,
		names: append(append([]string{}, left.Names()...), right.Names()...),
		kinds: append(append([]storage.Kind{}, left.Kinds()...), right.Kinds()...),
	}
}

// Names implements Operator.
func (c *CrossJoin) Names() []string { return c.names }

// Kinds implements Operator.
func (c *CrossJoin) Kinds() []storage.Kind { return c.kinds }

// Next implements Operator.
func (c *CrossJoin) Next() (*storage.Batch, error) {
	if !c.built {
		lrel, err := Collect(c.left, DrainOpts{})
		if err != nil {
			return nil, err
		}
		c.leftData = lrel.Flatten()
		c.rightRel, err = Collect(c.right, DrainOpts{})
		if err != nil {
			return nil, err
		}
		c.built = true
	}
	for c.li < c.leftData.Len() {
		if c.ri >= len(c.rightRel.Batches()) {
			c.li++
			c.ri = 0
			continue
		}
		rb := c.rightRel.Batches()[c.ri]
		c.ri++
		n := rb.Len()
		leftIdx := make([]int32, n)
		for i := range leftIdx {
			leftIdx[i] = int32(c.li)
		}
		lcols := c.leftData.Gather(leftIdx)
		return storage.NewBatch(append(append([]storage.Column{}, lcols.Cols...), rb.Cols...)...), nil
	}
	return nil, nil
}
