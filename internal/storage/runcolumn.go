package storage

import (
	"fmt"
	"slices"
	"sort"
)

// RunColumn is a run-length column of any kind: run k holds row k of
// vals, a plain column with one row per run, over the rows
// [ends[k-1], ends[k]) (from row 0 for k = 0). It is the shape of
// columns whose values come in runs:
//   - the actual-data columns the metadata already states — D.file_id
//     is one run per chunk, D.segment_id one per segment, D.window_ts a
//     couple per batch — which cost 12 bytes a run instead of 8 bytes a
//     row, resident and on the disk tier alike;
//   - the build-side columns a unique-key join emits under a clustered
//     probe batch: a run per run of equal probe keys (GatherRunsPooled).
//
// The shape lives between its producers and the kernels that read it
// (RunsOf, Runs, the *At accessors, ColumnZone); everything that copies
// rows — Gather, the builders and with them the coalescer,
// Batch.Materialize, Relation.Append and Flatten — writes the plain
// column of the same kind, and Int64s, Float64s, Bools and Strings
// expand it, so code that never heard of runs stays correct. Chunk run
// columns are table data: never pooled, skipped by PutColumn and
// Relation.Release. A join's run columns are pooled like any other
// probe output and return through PutBatch.
type RunColumn struct {
	vals   Column  // plain, one row per run
	ends   []int32 // cumulative and strictly increasing; the last is Len
	pooled bool
}

// NewRunColumn wraps runs of int64-backed values (not copied) as a
// column of kind KindInt64 or KindTime; see newRuns.
func NewRunColumn(kind Kind, vals []int64, ends []int32) *RunColumn {
	return newRuns(intColumn(kind, vals), ends)
}

// intColumn wraps vals (not copied) as the plain column of an
// int64-backed kind.
func intColumn(kind Kind, vals []int64) Column {
	switch kind {
	case KindInt64:
		return NewInt64Column(vals)
	case KindTime:
		return NewTimeColumn(vals)
	default:
		panic(fmt.Sprintf("storage: int64-backed column of %v", kind))
	}
}

// newRuns wraps a plain column holding one value per run, and the runs'
// ends, as a run column of vals' kind (neither copied). ends must be
// positive and strictly increasing, one per value; anything else is a
// caller bug and panics.
func newRuns(vals Column, ends []int32) *RunColumn {
	if _, ok := vals.(*RunColumn); ok {
		panic("storage: run column of a run column")
	}
	if vals.Len() != len(ends) {
		panic(fmt.Sprintf("storage: run column with %d values, %d ends", vals.Len(), len(ends)))
	}
	prev := int32(0)
	for _, e := range ends {
		if e <= prev {
			panic("storage: run column ends not strictly increasing")
		}
		prev = e
	}
	return &RunColumn{vals: vals, ends: ends}
}

// RunsOf exposes the runs of a run-shaped column — row k of vals over
// rows [ends[k-1], ends[k]) — and reports false for every other column.
// Callers must not modify either.
func RunsOf(c Column) (vals Column, ends []int32, ok bool) {
	rc, ok := c.(*RunColumn)
	if !ok {
		return nil, nil, false
	}
	return rc.vals, rc.ends, true
}

// Runs is RunsOf for int64 and timestamp columns, with the run values
// as their backing slice; it reports false for columns of other kinds
// or shapes.
func Runs(c Column) (vals []int64, ends []int32, ok bool) {
	v, ends, ok := RunsOf(c)
	if !ok || (v.Kind() != KindInt64 && v.Kind() != KindTime) {
		return nil, nil, false
	}
	return Int64s(v), ends, true
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
		return Int64At(runValue(c, i))
	default:
		panic(fmt.Sprintf("storage: Int64At on %T", c))
	}
}

// Float64At is Int64At for float64 columns.
func Float64At(c Column, i int) float64 {
	c, i = runValue(c, i)
	return c.(*Float64Column).vals[i]
}

// StringAt is Int64At for string columns.
func StringAt(c Column, i int) string {
	c, i = runValue(c, i)
	return c.(*StringColumn).Value(i)
}

// Kind implements Column.
func (c *RunColumn) Kind() Kind { return c.vals.Kind() }

// Len implements Column.
func (c *RunColumn) Len() int {
	if len(c.ends) == 0 {
		return 0
	}
	return int(c.ends[len(c.ends)-1])
}

// MemSize implements Column: a value and an end per run.
func (c *RunColumn) MemSize() int64 { return c.vals.MemSize() + int64(len(c.ends))*4 }

// runAt returns the run holding row i.
func (c *RunColumn) runAt(i int) int {
	return sort.Search(len(c.ends), func(k int) bool { return int(c.ends[k]) > i })
}

// Slice implements Column in O(runs): the values are shared, the ends
// rebased.
func (c *RunColumn) Slice(lo, hi int) Column {
	if lo < 0 || hi < lo || hi > c.Len() {
		panic(fmt.Sprintf("storage: run column slice [%d:%d] of %d rows", lo, hi, c.Len()))
	}
	if lo == hi {
		return &RunColumn{vals: c.vals.Slice(0, 0)}
	}
	if lo == 0 && hi == c.Len() && !c.pooled {
		return c
	}
	k0, k1 := c.runAt(lo), c.runAt(hi-1)
	ends := make([]int32, k1-k0+1)
	for k := range ends {
		ends[k] = min(c.ends[k0+k], int32(hi)) - int32(lo)
	}
	return &RunColumn{vals: c.vals.Slice(k0, k1+1), ends: ends}
}

// Gather implements Column; the result is the plain column of the kind.
func (c *RunColumn) Gather(idx []int32) Column {
	runs := c.runsOf(idx)
	out := c.vals.Gather(runs)
	PutSel(runs)
	return out
}

// expand returns the plain column of every row's value, in pooled
// memory when pooled is set.
func (c *RunColumn) expand(pooled bool) Column {
	runs := c.rowRuns()
	var out Column
	if pooled {
		out = GatherPooled(c.vals, runs)
	} else {
		out = c.vals.Gather(runs)
	}
	PutSel(runs)
	return out
}

// appendRuns appends the values of runs — a vector from runsOf or
// rowRuns, recycled here — to a builder of c's kind.
func (c *RunColumn) appendRuns(b Builder, runs []int32) {
	b.AppendSel(c.vals, runs)
	PutSel(runs)
}

// rowRuns returns, in a pooled vector the caller PutSels, the run of
// every row.
func (c *RunColumn) rowRuns() []int32 {
	out := GetSel(c.Len())[:c.Len()]
	lo := int32(0)
	for k, e := range c.ends {
		run := out[lo:e]
		for i := range run {
			run[i] = int32(k)
		}
		lo = e
	}
	return out
}

// runsOf returns, in a pooled vector the caller PutSels, the run of
// every row idx names. A run is looked up when idx leaves the previous
// one, so an ascending selection costs a search per run it touches.
func (c *RunColumn) runsOf(idx []int32) []int32 {
	out := GetSel(len(idx))
	var (
		lo, hi int32 // the rows of the current run
		k      int32
	)
	for _, j := range idx {
		if j < lo || j >= hi {
			k = int32(c.runAt(int(j)))
			lo, hi = 0, c.ends[k]
			if k > 0 {
				lo = c.ends[k-1]
			}
		}
		out = append(out, k)
	}
	return out
}

// GatherRunsPooled returns a run column owned by the caller like a
// GatherPooled result: run k holds src's row idx[k] over the rows
// [ends[k-1], ends[k]). src must be plain. The join probe emits the
// build-side columns it outputs this way, one run per run of equal
// probe keys laid over the probe batch's base rows.
func GatherRunsPooled(src Column, idx, ends []int32) Column {
	vals := GatherPooled(src, idx)
	if !pooling.Load() {
		return &RunColumn{vals: vals, ends: slices.Clone(ends)}
	}
	c, _ := runCols.Get().(*RunColumn)
	if c == nil {
		c = &RunColumn{}
	}
	c.vals, c.ends, c.pooled = vals, append(GetSel(len(ends)), ends...), true
	trackAcquire(c)
	return c
}

// hasRuns reports whether any of cols is run-shaped.
func hasRuns(cols []Column) bool {
	return slices.ContainsFunc(cols, func(c Column) bool {
		_, ok := c.(*RunColumn)
		return ok
	})
}

// expandRuns replaces every run-shaped column of cols, in place, by its
// plain twin — in pooled memory when pooled is set, one expansion per
// column however often it occurs — recycling the replaced column when
// release is set.
func expandRuns(cols []Column, pooled, release bool) {
	for i, c := range cols {
		rc, ok := c.(*RunColumn)
		if !ok {
			continue
		}
		e := rc.expand(pooled)
		for j := i; j < len(cols); j++ {
			if cols[j] == c {
				cols[j] = e
			}
		}
		if release {
			PutColumn(rc)
		}
	}
}
