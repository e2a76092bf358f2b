// Package storage provides the columnar storage primitives the engine is
// built on: typed columns, record batches and column builders.
//
// The design mirrors a bulk-processing column store: data moves between
// operators as batches of column slices, and all per-value operations are
// implemented as tight loops over typed Go slices.
package storage

import "fmt"

// Kind identifies the physical type of a column.
type Kind uint8

// The supported physical column types. Time is stored as int64
// nanoseconds since the Unix epoch but carries its own Kind so that
// formatting and schema checks can distinguish it from plain integers.
const (
	KindInvalid Kind = iota
	KindInt64
	KindFloat64
	KindBool
	KindString
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindBool:
		return "BOOLEAN"
	case KindString:
		return "VARCHAR"
	case KindTime:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// Column is an immutable, typed vector of values. Columns are created by
// builders (or the convenience constructors) and then treated as
// read-only by the execution engine; Slice and Gather return new columns
// that may share underlying storage. Besides the five plain types there
// is one shaped implementation, RunColumn (runcolumn.go).
type Column interface {
	// Kind reports the physical type of the column.
	Kind() Kind
	// Len reports the number of values.
	Len() int
	// MemSize estimates the heap footprint of the column in bytes.
	MemSize() int64
	// Slice returns the half-open range [lo, hi) as a column that
	// shares storage with the receiver.
	Slice(lo, hi int) Column
	// Gather returns a new column holding the values at the given
	// row indexes, in order.
	Gather(idx []int32) Column
}

// Int64s returns the values of an int64 or timestamp column, one per
// row: the backing slice of a plain column, a fresh expansion of a
// run-shaped one (kernels that care read RunsOf instead). It panics if
// the column has a different kind.
func Int64s(c Column) []int64 {
	switch c := c.(type) {
	case *Int64Column:
		return c.vals
	case *TimeColumn:
		return c.vals
	case *RunColumn:
		return Int64s(c.expand(false))
	default:
		panic(fmt.Sprintf("storage: Int64s on %T", c))
	}
}

// Float64s is Int64s for float64 columns.
func Float64s(c Column) []float64 {
	if rc, ok := c.(*RunColumn); ok {
		c = rc.expand(false)
	}
	return c.(*Float64Column).vals
}

// Bools is Int64s for bool columns.
func Bools(c Column) []bool {
	if rc, ok := c.(*RunColumn); ok {
		c = rc.expand(false)
	}
	return c.(*BoolColumn).vals
}

// Strings is Int64s for string columns: the column itself when plain,
// a fresh expansion sharing its dictionary when run-shaped.
func Strings(c Column) *StringColumn {
	if rc, ok := c.(*RunColumn); ok {
		c = rc.expand(false)
	}
	return c.(*StringColumn)
}

// Int64Column is a column of 64-bit integers. pooled marks columns
// whose backing array is owned by the batch-memory pool (see pool.go);
// it is metadata for PutColumn, invisible to readers.
type Int64Column struct {
	vals   []int64
	pooled bool
}

// NewInt64Column wraps vals (not copied) as a column.
func NewInt64Column(vals []int64) *Int64Column { return &Int64Column{vals: vals} }

// Kind implements Column.
func (c *Int64Column) Kind() Kind { return KindInt64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.vals) }

// MemSize implements Column.
func (c *Int64Column) MemSize() int64 { return int64(len(c.vals)) * 8 }

// Slice implements Column.
func (c *Int64Column) Slice(lo, hi int) Column { return &Int64Column{vals: c.vals[lo:hi]} }

// Gather implements Column.
func (c *Int64Column) Gather(idx []int32) Column {
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = c.vals[j]
	}
	return &Int64Column{vals: out}
}

// Value returns the i-th value.
func (c *Int64Column) Value(i int) int64 { return c.vals[i] }

// TimeColumn is a column of timestamps, stored as int64 nanoseconds
// since the Unix epoch.
type TimeColumn struct {
	vals   []int64
	pooled bool
}

// NewTimeColumn wraps vals (nanoseconds since epoch, not copied).
func NewTimeColumn(vals []int64) *TimeColumn { return &TimeColumn{vals: vals} }

// Kind implements Column.
func (c *TimeColumn) Kind() Kind { return KindTime }

// Len implements Column.
func (c *TimeColumn) Len() int { return len(c.vals) }

// MemSize implements Column.
func (c *TimeColumn) MemSize() int64 { return int64(len(c.vals)) * 8 }

// Slice implements Column.
func (c *TimeColumn) Slice(lo, hi int) Column { return &TimeColumn{vals: c.vals[lo:hi]} }

// Gather implements Column.
func (c *TimeColumn) Gather(idx []int32) Column {
	out := make([]int64, len(idx))
	for i, j := range idx {
		out[i] = c.vals[j]
	}
	return &TimeColumn{vals: out}
}

// Value returns the i-th value in nanoseconds since epoch.
func (c *TimeColumn) Value(i int) int64 { return c.vals[i] }

// Float64Column is a column of 64-bit floats.
type Float64Column struct {
	vals   []float64
	pooled bool
}

// NewFloat64Column wraps vals (not copied) as a column.
func NewFloat64Column(vals []float64) *Float64Column { return &Float64Column{vals: vals} }

// Kind implements Column.
func (c *Float64Column) Kind() Kind { return KindFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.vals) }

// MemSize implements Column.
func (c *Float64Column) MemSize() int64 { return int64(len(c.vals)) * 8 }

// Slice implements Column.
func (c *Float64Column) Slice(lo, hi int) Column { return &Float64Column{vals: c.vals[lo:hi]} }

// Gather implements Column.
func (c *Float64Column) Gather(idx []int32) Column {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = c.vals[j]
	}
	return &Float64Column{vals: out}
}

// Value returns the i-th value.
func (c *Float64Column) Value(i int) float64 { return c.vals[i] }

// BoolColumn is a column of booleans.
type BoolColumn struct {
	vals   []bool
	pooled bool
}

// NewBoolColumn wraps vals (not copied) as a column.
func NewBoolColumn(vals []bool) *BoolColumn { return &BoolColumn{vals: vals} }

// Kind implements Column.
func (c *BoolColumn) Kind() Kind { return KindBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.vals) }

// MemSize implements Column.
func (c *BoolColumn) MemSize() int64 { return int64(len(c.vals)) }

// Slice implements Column.
func (c *BoolColumn) Slice(lo, hi int) Column { return &BoolColumn{vals: c.vals[lo:hi]} }

// Gather implements Column.
func (c *BoolColumn) Gather(idx []int32) Column {
	out := make([]bool, len(idx))
	for i, j := range idx {
		out[i] = c.vals[j]
	}
	return &BoolColumn{vals: out}
}

// Value returns the i-th value.
func (c *BoolColumn) Value(i int) bool { return c.vals[i] }

// StringColumn is a dictionary-encoded column of strings. Low-cardinality
// attributes (station and channel codes, data-quality flags, ...) dominate
// the metadata tables of chunked repositories, so dictionary encoding is
// the storage default for strings.
type StringColumn struct {
	dict   []string
	codes  []int32
	pooled bool
}

// NewStringColumn dictionary-encodes vals into a column.
func NewStringColumn(vals []string) *StringColumn {
	b := NewStringBuilder(len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.FinishString()
}

// Kind implements Column.
func (c *StringColumn) Kind() Kind { return KindString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// MemSize implements Column.
func (c *StringColumn) MemSize() int64 {
	n := int64(len(c.codes)) * 4
	for _, s := range c.dict {
		n += int64(len(s)) + 16
	}
	return n
}

// Slice implements Column.
func (c *StringColumn) Slice(lo, hi int) Column {
	return &StringColumn{dict: c.dict, codes: c.codes[lo:hi]}
}

// Gather implements Column.
func (c *StringColumn) Gather(idx []int32) Column {
	out := make([]int32, len(idx))
	for i, j := range idx {
		out[i] = c.codes[j]
	}
	return &StringColumn{dict: c.dict, codes: out}
}

// Value returns the i-th string.
func (c *StringColumn) Value(i int) string { return c.dict[c.codes[i]] }

// Code returns the dictionary code of the i-th string. Codes are only
// comparable between columns sharing a dictionary.
func (c *StringColumn) Code(i int) int32 { return c.codes[i] }

// Codes returns the backing slice of dictionary codes, one per row.
// Callers must not modify it.
func (c *StringColumn) Codes() []int32 { return c.codes }

// Dict returns the dictionary. Callers must not modify it.
func (c *StringColumn) Dict() []string { return c.dict }

// Lookup returns the dictionary code for s, or -1 if s does not occur
// in the column. This turns string equality predicates into int32
// comparisons.
func (c *StringColumn) Lookup(s string) int32 {
	for i, d := range c.dict {
		if d == s {
			return int32(i)
		}
	}
	return -1
}

// ValueAt returns the i-th value of any column as an interface value.
// It is intended for result rendering and tests, not for inner loops.
func ValueAt(c Column, i int) any {
	switch c := c.(type) {
	case *Int64Column:
		return c.Value(i)
	case *TimeColumn:
		return c.Value(i)
	case *Float64Column:
		return c.Value(i)
	case *BoolColumn:
		return c.Value(i)
	case *StringColumn:
		return c.Value(i)
	case *RunColumn:
		return ValueAt(runValue(c, i))
	default:
		panic(fmt.Sprintf("storage: ValueAt on %T", c))
	}
}
