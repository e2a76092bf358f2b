package storage

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// BatchSize is the default number of rows exchanged between operators.
const BatchSize = 4096

// Batch is a set of equally long columns: the unit of data flow between
// physical operators.
//
// A batch may additionally carry a deferred selection vector: an
// ascending list of surviving row indexes into the base columns. Such a
// batch represents the selected rows without having copied them;
// Len reports the selected count, and Materialize performs the deferred
// Gather. Selection-aware operators (Filter, the specialized hash join
// and group-by) take ownership of the vector with DetachSel, read the
// base columns directly, and avoid the copy entirely. A batch carrying a selection is owned by its single
// downstream consumer, which either materializes it or detaches the
// vector; the vector is recycled into the selection pool at that point.
type Batch struct {
	Cols []Column
	sel  []int32 // deferred selection; nil selects all rows
	// pooled marks a header owned by the batch pool (pool.go). The flag
	// follows the linear owner through WithSel/DetachSel/Materialize so
	// exactly one holder ever recycles it.
	pooled bool
}

// NewBatch wraps columns into a batch, verifying equal lengths.
func NewBatch(cols ...Column) *Batch {
	b := &Batch{Cols: cols}
	n := b.Len()
	for _, c := range cols {
		if c.Len() != n {
			panic(fmt.Sprintf("storage: ragged batch: %d vs %d", c.Len(), n))
		}
	}
	return b
}

// WithSel returns a batch sharing b's columns with the given deferred
// selection attached. b must not already carry a selection. The
// returned batch takes ownership of sel.
func (b *Batch) WithSel(sel []int32) *Batch {
	if b.sel != nil {
		panic("storage: WithSel on a batch already carrying a selection")
	}
	if b.pooled {
		// Reuse the pooled header in place: b and the returned batch are
		// the same owner.
		b.sel = sel
		return b
	}
	return &Batch{Cols: b.Cols, sel: sel}
}

// Sel returns the deferred selection vector, nil when the batch is
// contiguous. Callers must not modify or retain it past the batch; to
// consume it, use DetachSel.
func (b *Batch) Sel() []int32 { return b.sel }

// DetachSel strips and returns the deferred selection, transferring
// ownership (and the duty to PutSel) to the caller; b must not be used
// afterwards — use the returned base batch instead. b's own selection
// reference is cleared, so a stray later use of b cannot reach the
// detached (and possibly re-pooled) vector.
func (b *Batch) DetachSel() (*Batch, []int32) {
	sel := b.sel
	if sel == nil {
		return b, nil
	}
	b.sel = nil
	if b.pooled {
		// The pooled header stays with its single owner.
		return b, sel
	}
	return &Batch{Cols: b.Cols}, sel
}

// Materialize returns the batch in plain contiguous form: a deferred
// selection is resolved by gathering the selected rows, recycling the
// selection vector (and clearing b's reference to it, so a stray second
// use of b cannot reach pooled memory), and run-shaped columns are
// expanded to their plain twins, so nothing downstream of a Materialize
// — a Relation built by Append, a sink — ever sees a column shape.
// Contiguous plain batches are returned unchanged. Because selections
// are ascending subsets, a selection as long as the base is the
// identity and resolves without gathering.
func (b *Batch) Materialize() *Batch {
	if sel := b.sel; sel != nil {
		b.sel = nil
		if len(sel) != b.baseLen() {
			cols := make([]Column, len(b.Cols))
			for i, c := range b.Cols {
				cols[i] = c.Gather(sel)
			}
			PutSel(sel)
			// The gathered copy replaces the base: recycle the (now dead)
			// pooled base columns and header, if any.
			PutBatch(b)
			return &Batch{Cols: cols}
		}
		PutSel(sel)
		if !b.pooled {
			b = &Batch{Cols: b.Cols}
		}
	}
	if hasRuns(b.Cols) {
		// A pooled header, and its column slice, stay with their single
		// owner; any other may be shared. The run columns expanded are
		// dead here (a pooled one returns to the pool).
		if !b.pooled {
			b = &Batch{Cols: slices.Clone(b.Cols)}
		}
		expandRuns(b.Cols, b.pooled, true)
	}
	return b
}

// baseLen is the row count of the base columns, ignoring any selection.
func (b *Batch) baseLen() int {
	if b == nil || len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Len reports the number of rows — the selected count when a deferred
// selection is attached — and zero for an empty batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if b.sel != nil {
		return len(b.sel)
	}
	return b.baseLen()
}

// Width reports the number of columns.
func (b *Batch) Width() int {
	if b == nil {
		return 0
	}
	return len(b.Cols)
}

// Slice returns rows [lo, hi) of all columns, sharing storage. A
// deferred selection is materialized first.
func (b *Batch) Slice(lo, hi int) *Batch {
	b = b.Materialize()
	cols := make([]Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Slice(lo, hi)
	}
	return &Batch{Cols: cols}
}

// Gather returns a new batch with the rows at idx, in order. A deferred
// selection is materialized first.
func (b *Batch) Gather(idx []int32) *Batch {
	b = b.Materialize()
	cols := make([]Column, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = c.Gather(idx)
	}
	return &Batch{Cols: cols}
}

// MemSize estimates the heap footprint of the batch in bytes.
func (b *Batch) MemSize() int64 {
	var n int64
	for _, c := range b.Cols {
		n += c.MemSize()
	}
	return n
}

// Relation is a fully materialized sequence of batches with a fixed
// width; the in-memory representation of a table column set or an
// operator result. Batches stored in a relation are always contiguous,
// and those Append stored are plain (it materializes); only a chunk
// relation (NewChunkRelation, DecodeRelation) keeps column shapes.
type Relation struct {
	batches []*Batch
	rows    int
	// zones caches per-batch min/max bounds of the int64/time columns
	// (small materialized aggregates), computed lazily on first use and
	// shared by every scan of the relation. Relations follow a build
	// phase (appends) then a read phase (scans); the pointer swap makes
	// concurrent first readers race only on identical recomputation.
	zones atomic.Pointer[[][]Zone]
}

// Zone is the [Min, Max] bound of one int64/time column over one batch.
// Ok marks columns the bound applies to; other kinds carry Ok=false.
type Zone struct {
	Min, Max int64
	Ok       bool
}

// Disjoint reports that no value in the zone can fall within [lo, hi]:
// the batch-skipping test. An invalid zone is never disjoint.
func (z Zone) Disjoint(lo, hi int64) bool {
	return z.Ok && (z.Max < lo || z.Min > hi)
}

// NewRelation returns an empty relation.
func NewRelation() *Relation { return &Relation{} }

// NewRelationWithCap returns an empty relation pre-sized for about
// nBatches appends, so draining a stream of known length does not
// re-grow the batch slice.
func NewRelationWithCap(nBatches int) *Relation {
	if nBatches <= 0 {
		return &Relation{}
	}
	return &Relation{batches: make([]*Batch, 0, nBatches)}
}

// Append adds a batch, materialized (selection resolved, column shapes
// expanded); empty batches are ignored.
func (r *Relation) Append(b *Batch) {
	if b.Len() == 0 {
		return
	}
	b = b.Materialize()
	if len(r.batches) > 0 && r.batches[0].Width() != b.Width() {
		panic(fmt.Sprintf("storage: relation width mismatch: %d vs %d", r.batches[0].Width(), b.Width()))
	}
	r.batches = append(r.batches, b)
	r.rows += b.Len()
}

// NewChunkRelation builds a relation from the batches of one decoded
// chunk as they are — contiguous, column shapes kept — with its zone
// maps (one bound per column per batch) already known, so the first
// scan of a fresh chunk computes none.
func NewChunkRelation(batches []*Batch, zones [][]Zone) *Relation {
	if len(zones) != len(batches) {
		panic(fmt.Sprintf("storage: chunk relation with %d batches, %d zone rows", len(batches), len(zones)))
	}
	r := &Relation{batches: batches}
	for _, b := range batches {
		if b.sel != nil || b.Width() != batches[0].Width() {
			panic("storage: chunk relation batches must be contiguous and equally wide")
		}
		r.rows += b.Len()
	}
	r.zones.Store(&zones)
	return r
}

// Zone returns the cached min/max bound of column col over batch i,
// computing the relation's zone maps on first use. Bounds exist for
// int64 and time columns; other kinds return Ok=false. The computation
// is incremental: a relation cloned from a snapshot (CloneForAppend)
// inherits the parent's cached bounds and only the appended tail
// batches are ever scanned.
func (r *Relation) Zone(i, col int) Zone {
	zp := r.zones.Load()
	if zp == nil || len(*zp) < len(r.batches) {
		z := extendZones(zp, r.batches)
		r.zones.Store(&z)
		zp = &z
	}
	zs := (*zp)[i]
	if col >= len(zs) {
		return Zone{}
	}
	return zs[col]
}

// CloneForAppend returns a new relation over the same batches with room
// for extra appends, inheriting the receiver's cached zone maps: the
// copy-on-write growth path of metadata tables, where each append used
// to recompute every batch bound from scratch. The inherited cache is
// shared read-only; extending it builds a fresh slice.
func (r *Relation) CloneForAppend(extra int) *Relation {
	nd := &Relation{rows: r.rows, batches: make([]*Batch, len(r.batches), len(r.batches)+extra)}
	copy(nd.batches, r.batches)
	if zp := r.zones.Load(); zp != nil {
		nd.zones.Store(zp)
	}
	return nd
}

// zoneComputed counts batches whose bounds were computed (not
// inherited); the incremental-inheritance tests read it.
var zoneComputed atomic.Int64

// ZoneComputations reports how many per-batch zone computations have
// run process-wide. Intended for tests.
func ZoneComputations() int64 { return zoneComputed.Load() }

// ColumnZone computes the min/max bound of an int64/time column — over
// its runs when it is run-shaped, over its rows otherwise; other kinds
// (and empty columns) report Ok=false. It is the single bounds routine
// behind both the relation's batch-level zone maps and the index
// package's chunk-level zone maps.
func ColumnZone(c Column) Zone {
	switch c.Kind() {
	case KindInt64, KindTime:
	default:
		return Zone{}
	}
	vals, _, ok := Runs(c)
	if !ok {
		vals = Int64s(c)
	}
	if len(vals) == 0 {
		return Zone{}
	}
	z := Zone{Min: vals[0], Max: vals[0], Ok: true}
	for _, v := range vals[1:] {
		if v < z.Min {
			z.Min = v
		}
		if v > z.Max {
			z.Max = v
		}
	}
	return z
}

// extendZones computes bounds for the batches beyond the cached prefix,
// reusing the prefix entries (per-batch bound slices are immutable once
// stored, so sharing across snapshots is safe).
func extendZones(prev *[][]Zone, batches []*Batch) [][]Zone {
	done := 0
	if prev != nil && len(*prev) <= len(batches) {
		done = len(*prev)
	}
	zones := make([][]Zone, len(batches))
	if done > 0 {
		copy(zones, (*prev)[:done])
	}
	for bi := done; bi < len(batches); bi++ {
		b := batches[bi]
		zs := make([]Zone, len(b.Cols))
		for ci, c := range b.Cols {
			zs[ci] = ColumnZone(c)
		}
		zones[bi] = zs
		zoneComputed.Add(1)
	}
	return zones
}

// Batches returns the underlying batches. Callers must not modify them.
func (r *Relation) Batches() []*Batch { return r.batches }

// TakeBatches removes and returns the relation's batches without
// releasing them: ownership of every batch moves to the caller and the
// relation is left empty (reusable or recyclable via PutRelation). The
// drain uses it to move coalesced batches out of its scratch buffers
// and into the sink.
func (r *Relation) TakeBatches() []*Batch {
	bs := r.batches
	r.batches = nil
	r.rows = 0
	r.zones.Store(nil)
	return bs
}

// Rows reports the total number of rows.
func (r *Relation) Rows() int { return r.rows }

// MemSize estimates the heap footprint of all batches in bytes.
func (r *Relation) MemSize() int64 {
	var n int64
	for _, b := range r.batches {
		n += b.MemSize()
	}
	return n
}

// Flatten concatenates all batches into one plain batch (a chunk
// relation's column shapes are expanded). It is used where an operator
// (hash join build, sort) needs random access to a whole input.
func (r *Relation) Flatten() *Batch {
	if len(r.batches) == 0 {
		return &Batch{}
	}
	if len(r.batches) == 1 {
		// The relation keeps its batch: expand into a new header.
		b := r.batches[0]
		if hasRuns(b.Cols) {
			b = &Batch{Cols: slices.Clone(b.Cols)}
			expandRuns(b.Cols, false, false)
		}
		return b
	}
	width := r.batches[0].Width()
	cols := make([]Column, width)
	for i := range cols {
		bl := NewBuilder(r.batches[0].Cols[i].Kind(), r.rows)
		for _, b := range r.batches {
			bl.AppendAll(b.Cols[i])
		}
		cols[i] = bl.Finish()
	}
	return NewBatch(cols...)
}
