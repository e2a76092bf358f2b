package storage

import (
	"fmt"
	"slices"
	"sort"
)

// RunColumn is a run-length column of int64-backed values: vals[k]
// holds for the rows [ends[k-1], ends[k]) (from row 0 for k = 0). It is
// the shape of the actual-data columns the metadata already states —
// D.file_id is one run per chunk, D.segment_id one per segment,
// D.window_ts a couple per batch — which cost 12 bytes a run instead of
// 8 bytes a row, resident and on the disk tier alike.
//
// The shape lives between chunk access and the kernels that read it
// (Runs, Int64At, ColumnZone); everything that copies rows — Gather,
// the builders and with them the coalescer, Batch.Materialize,
// Relation.Append and Flatten — writes the plain Int64Column or
// TimeColumn of the same kind, and Int64s expands it, so code that
// never heard of runs stays correct. Run columns are table data: never
// pooled, skipped by PutColumn and Relation.Release.
type RunColumn struct {
	kind Kind
	vals []int64
	ends []int32 // cumulative and strictly increasing; the last is Len
}

// NewRunColumn wraps runs (not copied) as a column of kind KindInt64 or
// KindTime. ends must be positive and strictly increasing, one per
// value; anything else is a caller bug and panics.
func NewRunColumn(kind Kind, vals []int64, ends []int32) *RunColumn {
	if kind != KindInt64 && kind != KindTime {
		panic(fmt.Sprintf("storage: run column of %v", kind))
	}
	if len(vals) != len(ends) {
		panic(fmt.Sprintf("storage: run column with %d values, %d ends", len(vals), len(ends)))
	}
	prev := int32(0)
	for _, e := range ends {
		if e <= prev {
			panic("storage: run column ends not strictly increasing")
		}
		prev = e
	}
	return &RunColumn{kind: kind, vals: vals, ends: ends}
}

// Runs exposes the runs of a run-shaped column — vals[k] over rows
// [ends[k-1], ends[k]) — and reports false for every other column.
// Callers must not modify the slices.
func Runs(c Column) (vals []int64, ends []int32, ok bool) {
	rc, ok := c.(*RunColumn)
	if !ok {
		return nil, nil, false
	}
	return rc.vals, rc.ends, true
}

// Int64At returns row i of an int64 or timestamp column of any shape.
// It is the per-row lookup for code that visits a few rows; loops over
// a whole column read Runs or Int64s.
func Int64At(c Column, i int) int64 {
	switch c := c.(type) {
	case *Int64Column:
		return c.vals[i]
	case *TimeColumn:
		return c.vals[i]
	case *RunColumn:
		return c.Value(i)
	default:
		panic(fmt.Sprintf("storage: Int64At on %T", c))
	}
}

// Kind implements Column.
func (c *RunColumn) Kind() Kind { return c.kind }

// Len implements Column.
func (c *RunColumn) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return int(c.ends[len(c.ends)-1])
}

// MemSize implements Column: a value and an end per run.
func (c *RunColumn) MemSize() int64 { return int64(len(c.vals)) * 12 }

// runAt returns the run holding row i.
func (c *RunColumn) runAt(i int) int {
	return sort.Search(len(c.ends), func(k int) bool { return int(c.ends[k]) > i })
}

// Value returns the i-th value.
func (c *RunColumn) Value(i int) int64 { return c.vals[c.runAt(i)] }

// Slice implements Column in O(runs): the values are shared, the ends
// rebased.
func (c *RunColumn) Slice(lo, hi int) Column {
	if lo < 0 || hi < lo || hi > c.Len() {
		panic(fmt.Sprintf("storage: run column slice [%d:%d] of %d rows", lo, hi, c.Len()))
	}
	if lo == hi {
		return &RunColumn{kind: c.kind}
	}
	if lo == 0 && hi == c.Len() {
		return c
	}
	k0, k1 := c.runAt(lo), c.runAt(hi-1)
	ends := make([]int32, k1-k0+1)
	for k := range ends {
		ends[k] = min(c.ends[k0+k], int32(hi)) - int32(lo)
	}
	return &RunColumn{kind: c.kind, vals: c.vals[k0 : k1+1], ends: ends}
}

// Gather implements Column; the result is the plain column of the kind.
func (c *RunColumn) Gather(idx []int32) Column {
	return c.plain(c.appendSel(make([]int64, 0, len(idx)), idx))
}

// plain wraps expanded values as the plain column of c's kind.
func (c *RunColumn) plain(vals []int64) Column {
	if c.kind == KindTime {
		return NewTimeColumn(vals)
	}
	return NewInt64Column(vals)
}

// expand returns a fresh slice of every row's value.
func (c *RunColumn) expand() []int64 { return c.appendAll(make([]int64, 0, c.Len())) }

// appendAll appends every row's value to dst.
func (c *RunColumn) appendAll(dst []int64) []int64 {
	n := len(dst)
	dst = slices.Grow(dst, c.Len())[:n+c.Len()]
	out, lo := dst[n:], int32(0)
	for k, v := range c.vals {
		run := out[lo:c.ends[k]]
		for i := range run {
			run[i] = v
		}
		lo = c.ends[k]
	}
	return dst
}

// appendSel appends the values of the rows idx names, in order. A run
// is looked up when idx leaves the previous one, so an ascending
// selection costs a search per run it touches.
func (c *RunColumn) appendSel(dst []int64, idx []int32) []int64 {
	var (
		lo, hi int32 // the rows of the current run
		v      int64
	)
	for _, j := range idx {
		if j < lo || j >= hi {
			k := c.runAt(int(j))
			v, lo, hi = c.vals[k], 0, c.ends[k]
			if k > 0 {
				lo = c.ends[k-1]
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// plainCols returns cols with every run-shaped column expanded to its
// plain twin, in a fresh slice — or cols itself, and false, when there
// is nothing to expand.
func plainCols(cols []Column) ([]Column, bool) {
	var out []Column
	for i, c := range cols {
		rc, ok := c.(*RunColumn)
		if !ok {
			continue
		}
		if out == nil {
			out = append([]Column(nil), cols...)
		}
		out[i] = rc.plain(rc.expand())
	}
	if out == nil {
		return cols, false
	}
	return out, true
}
