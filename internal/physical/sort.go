package physical

import (
	"fmt"
	"slices"

	"sommelier/internal/storage"
)

// SortKey is one ordering key, by column position.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys. The
// sort imposes the total order, so the result is unaffected by the
// input drain's batch boundaries.
type Sort struct {
	in    Operator
	keys  []SortKey
	drain DrainOpts
	done  bool
}

// SetDrain implements Breaker: the input drain is charged to the
// query's quota and stops when the query is cancelled instead of
// sorting its whole input first; it never runs the Morsel hook.
func (s *Sort) SetDrain(o DrainOpts) { o.Morsel = nil; s.drain = o }

// NewSort validates the key positions.
func NewSort(in Operator, keys []SortKey) (*Sort, error) {
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(in.Names()) {
			return nil, fmt.Errorf("physical: sort key %d out of range", k.Col)
		}
		switch in.Kinds()[k.Col] {
		case storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindString:
		default:
			return nil, fmt.Errorf("physical: cannot sort on %v", in.Kinds()[k.Col])
		}
	}
	return &Sort{in: in, keys: keys}, nil
}

// Names implements Operator.
func (s *Sort) Names() []string { return s.in.Names() }

// Kinds implements Operator.
func (s *Sort) Kinds() []storage.Kind { return s.in.Kinds() }

// Next implements Operator.
func (s *Sort) Next() (*storage.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	rel, err := Collect(s.in, s.drain)
	if err != nil {
		return nil, err
	}
	if rel.Rows() == 0 {
		return nil, nil
	}
	flat := rel.Flatten()
	return flat.Gather(stableOrder(flat, s.keys)), nil
}

// stableOrder returns the row numbers of b ordered by the keys, rows
// with equal keys in input order. It sorts the permutation itself
// through typed comparators resolved once per key — no reflective
// swapper, no type switch per comparison.
func stableOrder(b *storage.Batch, keys []SortKey) []int32 {
	idx := make([]int32, b.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	cmps := make([]func(x, y int32) int, len(keys))
	for i, k := range keys {
		cmps[i] = colCmp(b.Cols[k.Col], k.Desc)
	}
	slices.SortStableFunc(idx, func(x, y int32) int {
		for _, cmp := range cmps {
			if c := cmp(x, y); c != 0 {
				return c
			}
		}
		return 0
	})
	return idx
}

// colCmp returns a three-way comparison of two rows of c by row number,
// reversed for a descending key.
func colCmp(c storage.Column, desc bool) func(x, y int32) int {
	var cmp func(x, y int32) int
	switch c := c.(type) {
	case *storage.Float64Column:
		vals := storage.Float64s(c)
		cmp = func(x, y int32) int { return cmpOrd(vals[x], vals[y]) }
	case *storage.StringColumn:
		cmp = func(x, y int32) int { return cmpOrd(c.Value(int(x)), c.Value(int(y))) }
	default:
		vals := storage.Int64s(c)
		cmp = func(x, y int32) int { return cmpOrd(vals[x], vals[y]) }
	}
	if desc {
		return func(x, y int32) int { return cmp(y, x) }
	}
	return cmp
}

func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Limit passes through at most N rows. Its early stop abandons
// whatever the upstream operators still hold in flight (operators have
// no close protocol); the garbage collector takes it.
type Limit struct {
	in   Operator
	n    int
	seen int
}

// NewLimit builds a limit operator.
func NewLimit(in Operator, n int) *Limit { return &Limit{in: in, n: n} }

// Names implements Operator.
func (l *Limit) Names() []string { return l.in.Names() }

// Kinds implements Operator.
func (l *Limit) Kinds() []storage.Kind { return l.in.Kinds() }

// Next implements Operator.
func (l *Limit) Next() (*storage.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Len() > l.n {
		b = b.Materialize().Slice(0, l.n-l.seen)
	}
	l.seen += b.Len()
	return b, nil
}
