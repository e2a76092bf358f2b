package storage

// Batch/column memory pooling: the batch-lifecycle extension of the
// selection-vector pools in sel.go. Hot queries used to allocate every
// output column, batch header and accumulator per execution; with the
// pools, a steady-state hot query draws the same memory it released on
// the previous execution.
//
// Ownership is linear, mirroring the selection-vector rules:
//
//  1. A pooled column (or batch of pooled columns) has exactly one
//     owner at a time. Producers — pooled builders, GatherPooled, the
//     drain's coalescer, the join probe — create it owned by their
//     consumer.
//  2. The owner either consumes it (fold/probe → PutBatch), hands it
//     off (emit downstream, store into a Relation — the relation then
//     owns it), or releases it (PutColumn/PutBatch).
//  3. Whoever owns the final drained Relation calls Release when the
//     rows are no longer referenced; Release recycles owned pooled
//     memory and is a no-op on shared (unpooled) batches.
//
// Dropping pooled memory without a Put is safe — the GC collects it —
// but it shows up in Outstanding, which the leak tests pin to zero
// around complete query lifecycles.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// pooling is the global pooling switch; the differential tests disable
// it to prove pooled and unpooled execution return identical rows.
var pooling atomic.Bool

func init() { pooling.Store(true) }

// SetPooling toggles batch/column pooling globally (selection-vector
// pooling is unaffected). With pooling off, producers allocate fresh
// unpooled memory and every Put is a no-op. Intended for tests.
func SetPooling(on bool) { pooling.Store(on) }

// PoolingEnabled reports the current switch.
func PoolingEnabled() bool { return pooling.Load() }

// outstanding counts pooled columns and batch headers currently checked
// out (created and not yet recycled). It returns to zero when every
// pooled object of a completed workload has been released.
var outstanding atomic.Int64

// Outstanding reports the number of pooled objects currently live.
func Outstanding() int64 { return outstanding.Load() }

// slicePool recycles backing arrays of one element type, boxed to keep
// the Get/Put cycle allocation-free (as in sel.go).
type slicePool[T any] struct {
	slices sync.Pool // holds *[]T with non-nil backing
	boxes  sync.Pool // holds empty *[]T boxes
}

func (p *slicePool[T]) get(capacity int) []T {
	if !pooling.Load() {
		return make([]T, 0, capacity)
	}
	// Pooled arrays are at least a batch long, so a recycled one serves
	// any request up to a batch.
	capacity = max(capacity, BatchSize)
	v := p.slices.Get()
	if v == nil {
		return make([]T, 0, capacity)
	}
	bp := v.(*[]T)
	s := (*bp)[:0]
	*bp = nil
	p.boxes.Put(bp)
	if cap(s) < capacity {
		return make([]T, 0, capacity)
	}
	return s
}

func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 || !pooling.Load() {
		return
	}
	var bp *[]T
	if v := p.boxes.Get(); v != nil {
		bp = v.(*[]T)
	} else {
		bp = new([]T)
	}
	*bp = s[:0]
	p.slices.Put(bp)
}

var (
	int64Slices   slicePool[int64]
	float64Slices slicePool[float64]
	boolSlices    slicePool[bool]

	int64Cols   sync.Pool // *Int64Column
	timeCols    sync.Pool // *TimeColumn
	float64Cols sync.Pool // *Float64Column
	boolCols    sync.Pool // *BoolColumn
	stringCols  sync.Pool // *StringColumn
	batches     sync.Pool // *Batch with reusable Cols slice
	relations   sync.Pool // *Relation with reusable batches slice
)

// pooledInt64Col wraps vals (drawn from the pool) as an owned column.
func pooledInt64Col(vals []int64, asTime bool) Column {
	if asTime {
		c, _ := timeCols.Get().(*TimeColumn)
		if c == nil {
			c = &TimeColumn{}
		}
		c.vals, c.pooled = vals, true
		trackAcquire(c)
		return c
	}
	c, _ := int64Cols.Get().(*Int64Column)
	if c == nil {
		c = &Int64Column{}
	}
	c.vals, c.pooled = vals, true
	trackAcquire(c)
	return c
}

func pooledFloat64Col(vals []float64) Column {
	c, _ := float64Cols.Get().(*Float64Column)
	if c == nil {
		c = &Float64Column{}
	}
	c.vals, c.pooled = vals, true
	trackAcquire(c)
	return c
}

func pooledBoolCol(vals []bool) Column {
	c, _ := boolCols.Get().(*BoolColumn)
	if c == nil {
		c = &BoolColumn{}
	}
	c.vals, c.pooled = vals, true
	trackAcquire(c)
	return c
}

func pooledStringCol(dict []string, codes []int32) Column {
	c, _ := stringCols.Get().(*StringColumn)
	if c == nil {
		c = &StringColumn{}
	}
	c.dict, c.codes, c.pooled = dict, codes, true
	trackAcquire(c)
	return c
}

// PutColumn releases a pooled column: the backing array returns to its
// slice pool and the column header to its header pool. Unpooled columns
// (chunk data, shared scans) are left untouched, so callers may release
// mixed batches unconditionally. The caller must not use c afterwards.
func PutColumn(c Column) {
	if !pooling.Load() {
		return
	}
	switch c := c.(type) {
	case *Int64Column:
		if !c.pooled {
			return
		}
		trackRelease(c)
		int64Slices.put(c.vals)
		c.vals, c.pooled = nil, false
		int64Cols.Put(c)
	case *TimeColumn:
		if !c.pooled {
			return
		}
		trackRelease(c)
		int64Slices.put(c.vals)
		c.vals, c.pooled = nil, false
		timeCols.Put(c)
	case *Float64Column:
		if !c.pooled {
			return
		}
		trackRelease(c)
		float64Slices.put(c.vals)
		c.vals, c.pooled = nil, false
		float64Cols.Put(c)
	case *BoolColumn:
		if !c.pooled {
			return
		}
		trackRelease(c)
		boolSlices.put(c.vals)
		c.vals, c.pooled = nil, false
		boolCols.Put(c)
	case *StringColumn:
		if !c.pooled {
			return
		}
		trackRelease(c)
		PutSel(c.codes) // codes share the selection-vector pool shape
		c.dict, c.codes, c.pooled = nil, nil, false
		stringCols.Put(c)
	}
}

// NewPooledBatch wraps cols in a pooled batch header owned by the
// caller; recycle it (and its pooled columns) with PutBatch.
func NewPooledBatch(cols ...Column) *Batch {
	n := -1
	for _, c := range cols {
		if n < 0 {
			n = c.Len()
		} else if c.Len() != n {
			panic("storage: ragged pooled batch")
		}
	}
	if !pooling.Load() {
		// Copy like the pooled path does: callers (the coalescer) pass a
		// reused scratch slice that the next flush overwrites.
		return &Batch{Cols: append([]Column(nil), cols...)}
	}
	b, _ := batches.Get().(*Batch)
	if b == nil {
		b = &Batch{}
	}
	b.Cols = append(b.Cols[:0], cols...)
	b.sel, b.pooled = nil, true
	trackAcquire(b)
	return b
}

// ViewWithSel attaches sel to b as its deferred selection, reusing b's
// header when pooled and otherwise wrapping b's columns in a pooled
// header: the per-batch selection views a predicated scan emits then
// recycle through the header pool instead of churning the heap. b must
// not already carry a selection.
func ViewWithSel(b *Batch, sel []int32) *Batch {
	if b.pooled || !pooling.Load() {
		return b.WithSel(sel)
	}
	if b.sel != nil {
		panic("storage: ViewWithSel on a batch already carrying a selection")
	}
	v, _ := batches.Get().(*Batch)
	if v == nil {
		v = &Batch{}
	}
	v.Cols = append(v.Cols[:0], b.Cols...)
	v.sel, v.pooled = sel, true
	trackAcquire(v)
	return v
}

// PutBatch releases a batch: every pooled column is recycled, and a
// pooled header returns to the header pool. Unpooled batches and
// columns pass through untouched. A column referenced twice in the same
// batch (SELECT a, a) is released once. The caller must not use b
// afterwards.
func PutBatch(b *Batch) {
	if b == nil || !pooling.Load() {
		return
	}
	for i, c := range b.Cols {
		if dupColumn(b.Cols[:i], c) {
			continue
		}
		PutColumn(c)
	}
	putBatchHeader(b)
}

// dupColumn reports whether c already occurs (by identity) in cols.
func dupColumn(cols []Column, c Column) bool {
	for _, p := range cols {
		if p == c {
			return true
		}
	}
	return false
}

// PutBatchExcept releases b like PutBatch but skips columns that the
// caller re-emitted downstream (identity comparison): the projection
// operator keeps the columns it aliased into its output and recycles
// the rest.
func PutBatchExcept(b *Batch, keep []Column) {
	if b == nil || !pooling.Load() {
		return
	}
	for i, c := range b.Cols {
		if dupColumn(keep, c) || dupColumn(b.Cols[:i], c) {
			continue
		}
		PutColumn(c)
	}
	putBatchHeader(b)
}

func putBatchHeader(b *Batch) {
	if !b.pooled {
		return
	}
	trackRelease(b)
	b.Cols = b.Cols[:0]
	b.sel, b.pooled = nil, false
	batches.Put(b)
}

// GatherPooled is Column.Gather into pooled memory: the returned column
// is owned by the caller. String columns fall back to a regular
// (unpooled) gather — their dictionary is shared, not pooled.
func GatherPooled(c Column, idx []int32) Column {
	if !pooling.Load() {
		return c.Gather(idx)
	}
	switch c := c.(type) {
	case *Int64Column:
		out := int64Slices.get(len(idx))[:len(idx)]
		for i, j := range idx {
			out[i] = c.vals[j]
		}
		return pooledInt64Col(out, false)
	case *TimeColumn:
		out := int64Slices.get(len(idx))[:len(idx)]
		for i, j := range idx {
			out[i] = c.vals[j]
		}
		return pooledInt64Col(out, true)
	case *Float64Column:
		out := float64Slices.get(len(idx))[:len(idx)]
		for i, j := range idx {
			out[i] = c.vals[j]
		}
		return pooledFloat64Col(out)
	case *BoolColumn:
		out := boolSlices.get(len(idx))[:len(idx)]
		for i, j := range idx {
			out[i] = c.vals[j]
		}
		return pooledBoolCol(out)
	case *StringColumn:
		out := GetSel(len(idx))[:len(idx)]
		for i, j := range idx {
			out[i] = c.codes[j]
		}
		return pooledStringCol(c.dict, out)
	default:
		return c.Gather(idx)
	}
}

// ScatterPooled returns a column of n rows, owned by the caller like a
// GatherPooled result, holding src's row idx[i] at row pos[i] — at row
// i when pos is nil — for every i with idx[i] >= 0. The other rows hold
// an unspecified but readable value — a string column's hold dictionary
// code 0, so src must not be empty: a consumer may evaluate an
// expression over the whole base batch before applying the selection
// that hides them. The join probe uses it to lay build-side values
// under a passed-through probe batch at that batch's base positions.
func ScatterPooled(src Column, n int, pos, idx []int32) Column {
	var out Column
	switch c := src.(type) {
	case *Int64Column:
		out = pooledInt64Col(scatter(int64Slices.get(n)[:n], c.vals, pos, idx), false)
	case *TimeColumn:
		out = pooledInt64Col(scatter(int64Slices.get(n)[:n], c.vals, pos, idx), true)
	case *Float64Column:
		out = pooledFloat64Col(scatter(float64Slices.get(n)[:n], c.vals, pos, idx))
	case *BoolColumn:
		out = pooledBoolCol(scatter(boolSlices.get(n)[:n], c.vals, pos, idx))
	case *StringColumn:
		codes := GetSel(n)[:n]
		clear(codes) // a recycled vector holds row indexes, or -1
		out = pooledStringCol(c.dict, scatter(codes, c.codes, pos, idx))
	default:
		panic(fmt.Sprintf("storage: ScatterPooled on %T", src))
	}
	if !pooling.Load() {
		disownColumn(out)
	}
	return out
}

func scatter[T int64 | float64 | bool | int32](out, src []T, pos, idx []int32) []T {
	for i, j := range idx {
		switch {
		case j < 0:
		case pos == nil:
			out[i] = src[j]
		default:
			out[pos[i]] = src[j]
		}
	}
	return out
}

// GetRelation returns an empty relation pre-sized for nBatches, drawn
// from the relation-header pool; PutRelation returns it. The drain uses
// the pair for its scratch and per-range buffers, whose batches move on
// to the sink while the headers recycle.
func GetRelation(nBatches int) *Relation {
	if !pooling.Load() {
		return NewRelationWithCap(nBatches)
	}
	r, _ := relations.Get().(*Relation)
	if r == nil {
		return NewRelationWithCap(nBatches)
	}
	if cap(r.batches) < nBatches {
		r.batches = make([]*Batch, 0, nBatches)
	}
	return r
}

// PutRelation recycles a relation header whose batches have been
// transferred elsewhere (the batches themselves are NOT released).
func PutRelation(r *Relation) {
	if r == nil || !pooling.Load() {
		return
	}
	r.batches = r.batches[:0]
	r.rows = 0
	r.zones.Store(nil)
	relations.Put(r)
}

// DisownBatch removes a batch (and its columns) from pool accounting
// WITHOUT recycling: the memory stays valid indefinitely and the GC
// eventually reclaims it. Use it where batches escape into a structure
// whose lifetime the pool cannot track — the stage-one result a later
// result-scan may alias into the final output, or a flattened build
// side sharing its only batch.
func DisownBatch(b *Batch) {
	if b == nil {
		return
	}
	for _, c := range b.Cols {
		disownColumn(c)
	}
	if b.pooled {
		trackRelease(b)
		b.pooled = false
	}
}

func disownColumn(c Column) {
	switch c := c.(type) {
	case *Int64Column:
		if c.pooled {
			trackRelease(c)
			c.pooled = false
		}
	case *TimeColumn:
		if c.pooled {
			trackRelease(c)
			c.pooled = false
		}
	case *Float64Column:
		if c.pooled {
			trackRelease(c)
			c.pooled = false
		}
	case *BoolColumn:
		if c.pooled {
			trackRelease(c)
			c.pooled = false
		}
	case *StringColumn:
		if c.pooled {
			trackRelease(c)
			c.pooled = false
		}
	}
}

// Disown removes every batch of the relation from pool accounting
// without recycling (see DisownBatch). The relation remains fully
// usable.
func (r *Relation) Disown() {
	if r == nil {
		return
	}
	for _, b := range r.batches {
		DisownBatch(b)
	}
}

// Release recycles every batch of the relation (PutBatch each) and
// empties it. Only pooled batches and columns actually return to the
// pools; a relation of shared chunk batches releases nothing. The
// caller must not touch previously returned batches afterwards.
func (r *Relation) Release() {
	if r == nil {
		return
	}
	for i, b := range r.batches {
		PutBatch(b)
		r.batches[i] = nil
	}
	r.batches = r.batches[:0]
	r.rows = 0
	r.zones.Store(nil)
}
