package storage

import "fmt"

// Builder accumulates values of one kind and produces an immutable Column.
type Builder interface {
	// Kind reports the type of column being built.
	Kind() Kind
	// Len reports the number of values appended so far.
	Len() int
	// AppendAny appends a value of the builder's kind; it panics on a
	// type mismatch. Typed builders expose faster Append methods.
	AppendAny(v any)
	// AppendFrom appends the i-th value of col, which must have the
	// builder's kind. Here and below col may be run-shaped; what is
	// built is always plain.
	AppendFrom(col Column, i int)
	// AppendSel appends the rows of col named by the selection vector,
	// in order. col must have the builder's kind. Typed builders
	// implement it as one tight loop over the backing slice.
	AppendSel(col Column, sel []int32)
	// AppendAll appends every row of col, which must have the builder's
	// kind; typed builders implement it as one bulk copy.
	AppendAll(col Column)
	// Finish returns the built column and resets the builder.
	Finish() Column
	// Reset re-arms the builder with fresh backing capacity after a
	// Finish, reusing the builder value itself.
	Reset(capacity int)
}

// appendSel bulk-appends the selected rows of src to dst: one capacity
// check, then a tight index-write loop, matching Gather's speed.
func appendSel[T int64 | float64 | bool](dst, src []T, sel []int32) []T {
	n := len(dst)
	need := n + len(sel)
	if cap(dst) < need {
		grown := make([]T, n, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	for k, i := range sel {
		dst[n+k] = src[i]
	}
	return dst
}

// runValue resolves row i of a run-shaped col to its row of the run
// values; other columns pass through.
func runValue(col Column, i int) (Column, int) {
	if rc, ok := col.(*RunColumn); ok {
		return rc.vals, rc.runAt(i)
	}
	return col, i
}

// NewBuilder returns a builder for the given kind with capacity cap.
func NewBuilder(k Kind, capacity int) Builder {
	switch k {
	case KindInt64:
		return NewInt64Builder(capacity)
	case KindFloat64:
		return NewFloat64Builder(capacity)
	case KindBool:
		return NewBoolBuilder(capacity)
	case KindString:
		return NewStringBuilder(capacity)
	case KindTime:
		return NewTimeBuilder(capacity)
	default:
		panic(fmt.Sprintf("storage: NewBuilder(%v)", k))
	}
}

// Int64Builder builds Int64Columns.
type Int64Builder struct {
	vals []int64
}

// NewInt64Builder returns a builder with the given capacity.
func NewInt64Builder(capacity int) *Int64Builder {
	return &Int64Builder{vals: make([]int64, 0, capacity)}
}

// Kind implements Builder.
func (b *Int64Builder) Kind() Kind { return KindInt64 }

// Len implements Builder.
func (b *Int64Builder) Len() int { return len(b.vals) }

// Append appends v.
func (b *Int64Builder) Append(v int64) { b.vals = append(b.vals, v) }

// AppendAny implements Builder.
func (b *Int64Builder) AppendAny(v any) { b.vals = append(b.vals, v.(int64)) }

// AppendFrom implements Builder.
func (b *Int64Builder) AppendFrom(col Column, i int) {
	col, i = runValue(col, i)
	b.vals = append(b.vals, col.(*Int64Column).vals[i])
}

// AppendSel implements Builder.
func (b *Int64Builder) AppendSel(col Column, sel []int32) {
	if rc, ok := col.(*RunColumn); ok {
		rc.appendSel(b, sel)
		return
	}
	b.vals = appendSel(b.vals, col.(*Int64Column).vals, sel)
}

// AppendAll implements Builder.
func (b *Int64Builder) AppendAll(col Column) {
	if rc, ok := col.(*RunColumn); ok {
		b.AppendSel(rc.vals, rc.rowRuns())
		return
	}
	b.vals = append(b.vals, col.(*Int64Column).vals...)
}

// Reset implements Builder.
func (b *Int64Builder) Reset(capacity int) {
	b.vals = make([]int64, 0, capacity)
}

// Finish implements Builder.
func (b *Int64Builder) Finish() Column {
	c := &Int64Column{vals: b.vals}
	b.vals = nil
	return c
}

// TimeBuilder builds TimeColumns (int64 nanoseconds since epoch).
type TimeBuilder struct {
	vals []int64
}

// NewTimeBuilder returns a builder with the given capacity.
func NewTimeBuilder(capacity int) *TimeBuilder {
	return &TimeBuilder{vals: make([]int64, 0, capacity)}
}

// Kind implements Builder.
func (b *TimeBuilder) Kind() Kind { return KindTime }

// Len implements Builder.
func (b *TimeBuilder) Len() int { return len(b.vals) }

// Append appends a timestamp in nanoseconds since epoch.
func (b *TimeBuilder) Append(ns int64) { b.vals = append(b.vals, ns) }

// AppendAny implements Builder.
func (b *TimeBuilder) AppendAny(v any) { b.vals = append(b.vals, v.(int64)) }

// AppendFrom implements Builder.
func (b *TimeBuilder) AppendFrom(col Column, i int) {
	col, i = runValue(col, i)
	b.vals = append(b.vals, col.(*TimeColumn).vals[i])
}

// AppendSel implements Builder.
func (b *TimeBuilder) AppendSel(col Column, sel []int32) {
	if rc, ok := col.(*RunColumn); ok {
		rc.appendSel(b, sel)
		return
	}
	b.vals = appendSel(b.vals, col.(*TimeColumn).vals, sel)
}

// AppendAll implements Builder.
func (b *TimeBuilder) AppendAll(col Column) {
	if rc, ok := col.(*RunColumn); ok {
		b.AppendSel(rc.vals, rc.rowRuns())
		return
	}
	b.vals = append(b.vals, col.(*TimeColumn).vals...)
}

// Reset implements Builder.
func (b *TimeBuilder) Reset(capacity int) {
	b.vals = make([]int64, 0, capacity)
}

// Finish implements Builder.
func (b *TimeBuilder) Finish() Column {
	c := &TimeColumn{vals: b.vals}
	b.vals = nil
	return c
}

// Float64Builder builds Float64Columns.
type Float64Builder struct {
	vals []float64
}

// NewFloat64Builder returns a builder with the given capacity.
func NewFloat64Builder(capacity int) *Float64Builder {
	return &Float64Builder{vals: make([]float64, 0, capacity)}
}

// Kind implements Builder.
func (b *Float64Builder) Kind() Kind { return KindFloat64 }

// Len implements Builder.
func (b *Float64Builder) Len() int { return len(b.vals) }

// Append appends v.
func (b *Float64Builder) Append(v float64) { b.vals = append(b.vals, v) }

// AppendAny implements Builder.
func (b *Float64Builder) AppendAny(v any) { b.vals = append(b.vals, v.(float64)) }

// AppendFrom implements Builder.
func (b *Float64Builder) AppendFrom(col Column, i int) {
	col, i = runValue(col, i)
	b.vals = append(b.vals, col.(*Float64Column).vals[i])
}

// AppendSel implements Builder.
func (b *Float64Builder) AppendSel(col Column, sel []int32) {
	if rc, ok := col.(*RunColumn); ok {
		rc.appendSel(b, sel)
		return
	}
	b.vals = appendSel(b.vals, col.(*Float64Column).vals, sel)
}

// AppendAll implements Builder.
func (b *Float64Builder) AppendAll(col Column) {
	if rc, ok := col.(*RunColumn); ok {
		b.AppendSel(rc.vals, rc.rowRuns())
		return
	}
	b.vals = append(b.vals, col.(*Float64Column).vals...)
}

// Reset implements Builder.
func (b *Float64Builder) Reset(capacity int) {
	b.vals = make([]float64, 0, capacity)
}

// Finish implements Builder.
func (b *Float64Builder) Finish() Column {
	c := &Float64Column{vals: b.vals}
	b.vals = nil
	return c
}

// BoolBuilder builds BoolColumns.
type BoolBuilder struct {
	vals []bool
}

// NewBoolBuilder returns a builder with the given capacity.
func NewBoolBuilder(capacity int) *BoolBuilder {
	return &BoolBuilder{vals: make([]bool, 0, capacity)}
}

// Kind implements Builder.
func (b *BoolBuilder) Kind() Kind { return KindBool }

// Len implements Builder.
func (b *BoolBuilder) Len() int { return len(b.vals) }

// Append appends v.
func (b *BoolBuilder) Append(v bool) { b.vals = append(b.vals, v) }

// AppendAny implements Builder.
func (b *BoolBuilder) AppendAny(v any) { b.vals = append(b.vals, v.(bool)) }

// AppendFrom implements Builder.
func (b *BoolBuilder) AppendFrom(col Column, i int) {
	col, i = runValue(col, i)
	b.vals = append(b.vals, col.(*BoolColumn).vals[i])
}

// AppendSel implements Builder.
func (b *BoolBuilder) AppendSel(col Column, sel []int32) {
	if rc, ok := col.(*RunColumn); ok {
		rc.appendSel(b, sel)
		return
	}
	b.vals = appendSel(b.vals, col.(*BoolColumn).vals, sel)
}

// AppendAll implements Builder.
func (b *BoolBuilder) AppendAll(col Column) {
	if rc, ok := col.(*RunColumn); ok {
		b.AppendSel(rc.vals, rc.rowRuns())
		return
	}
	b.vals = append(b.vals, col.(*BoolColumn).vals...)
}

// Reset implements Builder.
func (b *BoolBuilder) Reset(capacity int) {
	b.vals = make([]bool, 0, capacity)
}

// Finish implements Builder.
func (b *BoolBuilder) Finish() Column {
	c := &BoolColumn{vals: b.vals}
	b.vals = nil
	return c
}

// StringBuilder builds dictionary-encoded StringColumns.
type StringBuilder struct {
	dict  []string
	index map[string]int32
	codes []int32
}

// NewStringBuilder returns a builder with the given capacity.
func NewStringBuilder(capacity int) *StringBuilder {
	return &StringBuilder{
		index: make(map[string]int32),
		codes: make([]int32, 0, capacity),
	}
}

// Kind implements Builder.
func (b *StringBuilder) Kind() Kind { return KindString }

// Len implements Builder.
func (b *StringBuilder) Len() int { return len(b.codes) }

// Append appends v, extending the dictionary if necessary.
func (b *StringBuilder) Append(v string) {
	code, ok := b.index[v]
	if !ok {
		code = int32(len(b.dict))
		b.dict = append(b.dict, v)
		b.index[v] = code
	}
	b.codes = append(b.codes, code)
}

// AppendAny implements Builder.
func (b *StringBuilder) AppendAny(v any) { b.Append(v.(string)) }

// AppendFrom implements Builder.
func (b *StringBuilder) AppendFrom(col Column, i int) {
	b.Append(StringAt(col, i))
}

// AppendSel implements Builder.
func (b *StringBuilder) AppendSel(col Column, sel []int32) {
	if rc, ok := col.(*RunColumn); ok {
		rc.appendSel(b, sel)
		return
	}
	sc := col.(*StringColumn)
	for _, i := range sel {
		b.Append(sc.Value(int(i)))
	}
}

// AppendAll implements Builder.
func (b *StringBuilder) AppendAll(col Column) {
	if rc, ok := col.(*RunColumn); ok {
		b.AppendSel(rc.vals, rc.rowRuns())
		return
	}
	sc := col.(*StringColumn)
	for i := 0; i < sc.Len(); i++ {
		b.Append(sc.Value(i))
	}
}

// Reset implements Builder.
func (b *StringBuilder) Reset(capacity int) {
	b.dict = nil
	b.index = make(map[string]int32)
	b.codes = make([]int32, 0, capacity)
}

// Finish implements Builder.
func (b *StringBuilder) Finish() Column { return b.FinishString() }

// FinishString returns the built column with its concrete type.
func (b *StringBuilder) FinishString() *StringColumn {
	c := &StringColumn{dict: b.dict, codes: b.codes}
	b.dict, b.index, b.codes = nil, nil, nil
	return c
}
