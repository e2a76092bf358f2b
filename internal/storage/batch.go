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
// ascending list of surviving row indexes into the base columns, the
// MonetDB/X100 representation of a filter result. Such a batch
// represents the selected rows without having copied them; Len reports
// the selected count, and Materialize performs the deferred Gather.
// Selection-aware operators (Filter, the hash join probe, aggregation,
// top-k) read the base columns through the selection directly and
// avoid the copy entirely.
//
// A selection belongs to the operator that produced it: the operator
// owns one reusable buffer and rewrites it on its next Next, so the
// selection a batch carries is valid until then. A consumer that keeps
// rows past that point resolves the selection into rows of its own
// (Relation.Append materializes, Coalescer.Add copies the selected
// rows). Columns are never written in place once a batch carries them.
type Batch struct {
	Cols []Column
	sel  []int32 // deferred selection; nil selects all rows
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
// selection attached. b must not already carry a selection.
func (b *Batch) WithSel(sel []int32) *Batch {
	if b.sel != nil {
		panic("storage: WithSel on a batch already carrying a selection")
	}
	return &Batch{Cols: b.Cols, sel: sel}
}

// Sel returns the deferred selection vector, nil when the batch is
// contiguous. Callers must not modify it.
func (b *Batch) Sel() []int32 { return b.sel }

// GrowSel returns sel emptied, with room for n entries: an operator's
// reusable selection buffer, reallocated only when too small, then at
// least doubled up to BatchSize. The result is never nil, so an empty
// selection stays distinct from the nil that selects every row.
func GrowSel(sel []int32, n int) []int32 {
	if sel == nil || cap(sel) < n {
		return make([]int32, 0, max(n, min(2*cap(sel), BatchSize)))
	}
	return sel[:0]
}

// Base returns the batch's base columns without its selection: b itself
// when it carries none.
func (b *Batch) Base() *Batch {
	if b.sel == nil {
		return b
	}
	return &Batch{Cols: b.Cols}
}

// Materialize returns the batch in plain contiguous form: a deferred
// selection is resolved by gathering the selected rows, and run-shaped
// columns are expanded to their plain twins, so nothing downstream of a
// Materialize — a Relation built by Append, a sink — ever sees a column
// shape. Contiguous plain batches are returned unchanged. Because
// selections are ascending subsets, a selection as long as the base is
// the identity and resolves without gathering.
func (b *Batch) Materialize() *Batch {
	if sel := b.sel; sel != nil {
		if len(sel) != b.baseLen() {
			cols := make([]Column, len(b.Cols))
			for i, c := range b.Cols {
				cols[i] = c.Gather(sel)
			}
			return &Batch{Cols: cols}
		}
		b = &Batch{Cols: b.Cols}
	}
	if hasRuns(b.Cols) {
		// The header and its column slice may be shared: expand into a
		// copy.
		b = &Batch{Cols: slices.Clone(b.Cols)}
		expandRuns(b.Cols)
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
// is incremental: a relation grown from a snapshot's Head inherits the
// parent's cached bounds and only the appended tail batches are ever
// scanned.
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

// Head returns a new relation over the receiver's first k batches with
// room for extra appends, inheriting their cached zone maps: the
// copy-on-write growth path of metadata tables, whose merges keep every
// batch before the first one they change. The inherited cache is shared
// read-only; extending it builds a fresh slice.
func (r *Relation) Head(k, extra int) *Relation {
	nd := &Relation{batches: make([]*Batch, k, k+extra)}
	copy(nd.batches, r.batches[:k])
	for _, b := range nd.batches {
		nd.rows += b.Len()
	}
	if zp := r.zones.Load(); zp != nil {
		z := (*zp)[:min(k, len(*zp))]
		nd.zones.Store(&z)
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
// copying them: every batch moves to the caller and the relation is
// left empty and reusable. The drain uses it to move coalesced batches
// out of its scratch buffers and into the sink.
func (r *Relation) TakeBatches() []*Batch {
	bs := r.batches
	r.batches = nil
	r.rows = 0
	r.zones.Store(nil)
	return bs
}

// Copy returns the relation's rows as one batch in memory of its own,
// so they outlive whatever r's columns alias (a chunk's arena, which the
// chunk store reuses). Several batches are concatenated, each column
// copied once into exactly its size; a single batch's int64, time and
// float64 columns — the kinds an arena backs — are cloned, its bool and
// string columns shared.
func (r *Relation) Copy() *Relation {
	if len(r.batches) != 1 {
		out := &Relation{rows: r.rows}
		if r.rows > 0 {
			out.batches = []*Batch{r.Flatten()}
		}
		return out
	}
	b := r.batches[0].Materialize()
	cols := make([]Column, len(b.Cols))
	for i, c := range b.Cols {
		switch c := c.(type) {
		case *Int64Column:
			cols[i] = NewInt64Column(slices.Clone(c.vals))
		case *TimeColumn:
			cols[i] = NewTimeColumn(slices.Clone(c.vals))
		case *Float64Column:
			cols[i] = NewFloat64Column(slices.Clone(c.vals))
		default:
			cols[i] = c
		}
	}
	return &Relation{batches: []*Batch{{Cols: cols}}, rows: r.rows}
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
			expandRuns(b.Cols)
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
