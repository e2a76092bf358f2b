package physical

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// The probe side parallelizes through Split: each returned operator
// probes its own share of the right input's morsels against the shared
// read-only table.
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
	// dop is the parallelism granted by the executor for the build drain.
	dop int
	// quota meters the materialized build side against the per-query
	// memory ceiling.
	quota *storage.Quota
	// check cancels the build drain — a pipeline breaker — when the
	// query's deadline expires mid-build.
	check func() error

	built     bool
	buildData *storage.Batch
	table     *joinTable
	// probesLeft counts the probe streams still running; the last one to
	// exhaust recycles the pooled build table.
	probesLeft atomic.Int32
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
	// A build side larger than a batch must not pin its oversized run
	// vectors under the selection pool's batch-sized users.
	if data.Len() <= storage.BatchSize {
		storage.PutSel(ids)
		storage.PutSel(ends)
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

// SetParallel implements ParallelHinter: it grants the build-side drain
// up to dop workers. It must be called before the first Next or Split.
func (j *HashJoin) SetParallel(dop int) { j.dop = dop }

// SetQuota implements QuotaHinter: the materialized build side is
// charged against the per-query memory ceiling.
func (j *HashJoin) SetQuota(q *storage.Quota) { j.quota = q }

// SetCheck implements CheckHinter for the build-side drain.
func (j *HashJoin) SetCheck(check func() error) { j.check = check }

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
	rel, err := Collect(j.left, DrainOpts{DOP: j.dop, Quota: j.quota, Check: j.check, Morsel: j.check})
	if err != nil {
		return err
	}
	j.buildData = rel.Flatten()
	// A multi-batch flatten copied the rows: recycle the drained input.
	// A single-batch flatten shares it: disown (the build data lives as
	// long as the join, outside pool accounting).
	if len(rel.Batches()) > 1 {
		rel.Release()
	} else {
		rel.Disown()
	}
	j.probesLeft.Store(1)
	if j.buildData.Len() > 0 {
		if j.table, err = newJoinTable(j.fastKey, j.buildData, j.leftK); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

// probeDone marks one probe stream exhausted; the last one recycles the
// pooled build table.
func (j *HashJoin) probeDone() {
	if j.probesLeft.Add(-1) == 0 && j.table != nil {
		joinTablePool.Put(j.table)
		j.table = nil
	}
}

// Next implements Operator.
func (j *HashJoin) Next() (*storage.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	return j.probeFrom(j.right)
}

// Split implements Splitter: when the probe side can partition its
// morsels, the build runs once and each returned operator probes one
// share of the right input against the shared read-only table.
func (j *HashJoin) Split(n int) ([]Operator, error) {
	sp, ok := j.right.(Splitter)
	if !ok {
		return nil, nil
	}
	rights, err := sp.Split(n)
	if err != nil || rights == nil {
		return nil, err
	}
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	out := make([]Operator, len(rights))
	for i, r := range rights {
		out[i] = &hashJoinProbe{j: j, right: r}
	}
	j.probesLeft.Store(int32(len(out)))
	return out, nil
}

// constHinter is implemented by scans that can tell from their zone
// maps that the batch they last returned holds a single value in each
// of the given columns.
type constHinter interface {
	lastConst(cols []int) bool
}

// probeFrom probes batches pulled from right against the build table.
// It reads only immutable post-build state, so any number of probes may
// run concurrently over disjoint right streams.
func (j *HashJoin) probeFrom(right Operator) (*storage.Batch, error) {
	if j.table == nil { // empty build side
		return nil, nil
	}
	for {
		rb, err := right.Next()
		if err != nil {
			return nil, err
		}
		if rb == nil {
			j.probeDone()
			return nil, nil
		}
		base, sel := rb.DetachSel()
		ch, ok := right.(constHinter)
		constant := ok && j.fastKey && ch.lastConst(j.rightK)
		ids, ends, err := j.table.x.resolve(base, j.rightK, sel, false, constant)
		if err != nil {
			storage.PutSel(sel)
			storage.PutBatch(base)
			return nil, err
		}
		// The output columns are laid straight into a pooled header.
		out := storage.NewPooledBatch()
		if j.table.unique {
			out.Cols, sel = j.runCols(out.Cols, base, sel, ids, ends)
		} else {
			out.Cols, sel = j.gatherCols(out.Cols, base, sel, ids, ends)
		}
		storage.PutSel(ids)
		storage.PutSel(ends)
		// Probe columns passed through live on in out; whatever else the
		// probe batch owned dies here.
		storage.PutBatchExcept(base, out.Cols)
		if len(out.Cols) == 0 {
			storage.PutBatch(out)
			continue
		}
		if sel != nil {
			out = storage.ViewWithSel(out, sel)
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
// the columns to cols and consumes sel; no columns when nothing matched.
func (j *HashJoin) runCols(cols []storage.Column, base *storage.Batch, sel, ids, ends []int32) ([]storage.Column, []int32) {
	rows, rowEnds := storage.GetSel(len(ids)), storage.GetSel(len(ids))
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
	if matched == 0 {
		storage.PutSel(rows)
		storage.PutSel(rowEnds)
		storage.PutSel(sel)
		return cols, nil
	}
	rowEnds[len(rowEnds)-1] = int32(base.Len())
	nl := len(j.buildData.Cols)
	for _, o := range j.out {
		if o < nl {
			cols = append(cols, storage.GatherRunsPooled(j.buildData.Cols[o], rows, rowEnds))
		} else {
			cols = append(cols, base.Cols[o-nl])
		}
	}
	storage.PutSel(rows)
	storage.PutSel(rowEnds)
	n := int(ends[len(ends)-1])
	if matched == n {
		return cols, sel
	}
	outSel := storage.GetSel(matched)
	for k, id := range ids {
		if id < 0 {
			continue
		}
		for p := runStart(ends, k); p < ends[k]; p++ {
			outSel = append(outSel, int32(at(sel, int(p))))
		}
	}
	storage.PutSel(sel)
	return cols, outSel
}

// gatherCols builds the output of a probe batch against a table with
// duplicate keys: every (probe row, build row) pair, both sides
// gathered into pooled columns, which need no selection. Appends the
// columns to cols and consumes sel; no columns when nothing matched.
func (j *HashJoin) gatherCols(cols []storage.Column, base *storage.Batch, sel, ids, ends []int32) ([]storage.Column, []int32) {
	leftIdx, rightIdx := storage.GetSel(base.Len()), storage.GetSel(base.Len())
	for k, id := range ids {
		if id < 0 {
			continue
		}
		for p := runStart(ends, k); p < ends[k]; p++ {
			r := int32(at(sel, int(p)))
			for lr := j.table.head[id]; lr >= 0; lr = j.table.next[lr] {
				leftIdx = append(leftIdx, lr)
				rightIdx = append(rightIdx, r)
			}
		}
	}
	storage.PutSel(sel)
	if len(leftIdx) > 0 {
		nl := len(j.buildData.Cols)
		for _, o := range j.out {
			if o < nl {
				cols = append(cols, storage.GatherPooled(j.buildData.Cols[o], leftIdx))
			} else {
				cols = append(cols, storage.GatherPooled(base.Cols[o-nl], rightIdx))
			}
		}
	}
	storage.PutSel(leftIdx)
	storage.PutSel(rightIdx)
	return cols, nil
}

// hashJoinProbe is one partition of a split hash join: it probes its
// own right-side share against the parent's shared build table.
type hashJoinProbe struct {
	j     *HashJoin
	right Operator
}

// Names implements Operator.
func (p *hashJoinProbe) Names() []string { return p.j.names }

// Kinds implements Operator.
func (p *hashJoinProbe) Kinds() []storage.Kind { return p.j.kinds }

// Next implements Operator.
func (p *hashJoinProbe) Next() (*storage.Batch, error) {
	return p.j.probeFrom(p.right)
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
		// Both sides outlive the drain (the right batches are re-emitted
		// in the product): take them out of pool accounting.
		lrel.Disown()
		c.rightRel, err = Collect(c.right, DrainOpts{})
		if err != nil {
			return nil, err
		}
		c.rightRel.Disown()
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
