package expr

import (
	"sommelier/internal/storage"
)

// SelBuf is the selection memory of one EvalSel caller: the buffer its
// result is written into, and the buffers OR and NOT keep their
// intermediate selections in, two per nesting depth. An operator owns
// one SelBuf while it runs; every buffer grows on first use and is reused on every
// later batch, so evaluation allocates nothing once warm. The zero
// value is ready to use.
type SelBuf struct {
	out    []int32
	levels [][2][]int32
}

// EvalSel evaluates a bound boolean predicate over the rows of b named
// by sel (nil selects every row) and returns the qualifying row indexes
// as an ascending selection vector. It is the selection-vector
// counterpart of Eval: comparisons run as fused compare-and-select
// kernels that never materialize a bool column, AND evaluates its right
// operand only over the rows surviving the left, and OR evaluates its
// right operand only over the rows the left rejected.
//
// b must be contiguous (carry no deferred selection); pass the base
// batch and its selection separately. sel is read-only and must not be
// a result of the same SelBuf. The returned vector is s's own buffer:
// it is valid until the next EvalSel on s, and never nil — an empty
// result stays distinct from the nil that selects every row.
func (s *SelBuf) EvalSel(e Expr, b *storage.Batch, sel []int32) []int32 {
	s.out = s.eval(e, b, sel, s.out, 0)
	return s.out
}

// tmp returns intermediate buffer i of nesting depth d.
func (s *SelBuf) tmp(d, i int) []int32 {
	for len(s.levels) <= d {
		s.levels = append(s.levels, [2][]int32{})
	}
	return s.levels[d][i]
}

// eval writes the selection of e at nesting depth d into dst, keeping
// the intermediates of a boolean connective in the buffers of depth d
// (stored back as they grow) and those of its operands deeper down. sel
// may share dst's memory: every kernel writes its survivors in order,
// never ahead of the candidate it reads, so it filters in place, and
// OR's merge writes dst only once sel is no longer read.
func (s *SelBuf) eval(e Expr, b *storage.Batch, sel, dst []int32, d int) []int32 {
	// No candidates: nothing can qualify, and the fallback paths would
	// still evaluate whole-batch columns (AND's right operand after an
	// all-rejecting left lands here with an empty selection).
	if sel != nil && len(sel) == 0 {
		return storage.GrowSel(dst, 0)
	}
	n := b.Len()
	switch e := e.(type) {
	case *And:
		// The right operand filters the left's survivors in place; AND
		// keeps no intermediate, so its operands use depth d's buffers.
		l := s.eval(e.L, b, sel, dst, d)
		return s.eval(e.R, b, l, l, d)
	case *Or:
		l := s.eval(e.L, b, sel, s.tmp(d, 0), d+1)
		s.levels[d][0] = l
		rest := selComplement(s.tmp(d, 1), sel, l, n)
		r := s.eval(e.R, b, rest, rest, d+1)
		s.levels[d][1] = r
		return selMerge(dst, l, r)
	case *Not:
		inner := s.eval(e.E, b, sel, s.tmp(d, 0), d+1)
		s.levels[d][0] = inner
		return selComplement(dst, sel, inner, n)
	case *Const:
		if e.B {
			return selCopy(dst, sel, n)
		}
		return storage.GrowSel(dst, 0)
	case *ColRef:
		vals := storage.Bools(b.Cols[e.Idx])
		out := storage.GrowSel(dst, selLen(sel, n))
		if sel == nil {
			for i, v := range vals {
				if v {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if vals[i] {
				out = append(out, i)
			}
		}
		return out
	case *Cmp:
		if out, ok := evalSelCmp(dst, e, b, sel); ok {
			return out
		}
		return evalSelMask(dst, e, b, sel)
	default:
		return evalSelMask(dst, e, b, sel)
	}
}

// selLen is the number of candidate rows.
func selLen(sel []int32, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// selCopy writes sel (identity for nil) into dst.
func selCopy(dst, sel []int32, n int) []int32 {
	out := storage.GrowSel(dst, selLen(sel, n))
	if sel != nil {
		return append(out, sel...)
	}
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	return out
}

// selComplement writes into dst the rows of sel (identity for nil)
// absent from sub, which must be an ascending subset of sel.
func selComplement(dst, sel, sub []int32, n int) []int32 {
	out := storage.GrowSel(dst, selLen(sel, n)-len(sub))
	j := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			if j < len(sub) && sub[j] == int32(i) {
				j++
				continue
			}
			out = append(out, int32(i))
		}
		return out
	}
	for _, i := range sel {
		if j < len(sub) && sub[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}

// selMerge merges two disjoint ascending selections into dst.
func selMerge(dst, a, b []int32) []int32 {
	out := storage.GrowSel(dst, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// evalSelMask is the generic fallback: evaluate the predicate as a bool
// column over the whole base batch and filter the candidates by it.
func evalSelMask(dst []int32, e Expr, b *storage.Batch, sel []int32) []int32 {
	mask := storage.Bools(e.Eval(b))
	out := storage.GrowSel(dst, selLen(sel, b.Len()))
	if sel == nil {
		for i, v := range mask {
			if v {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if mask[i] {
			out = append(out, i)
		}
	}
	return out
}

// evalSelCmp dispatches a comparison to a fused typed kernel. It
// handles column-vs-constant (either side) and column-vs-column
// operand shapes; anything else (arithmetic operands, ...) reports
// false and falls back to the mask path.
func evalSelCmp(dst []int32, c *Cmp, b *storage.Batch, sel []int32) ([]int32, bool) {
	n := b.Len()
	// Normalize constant-vs-column to column-vs-constant.
	if lcol, ok := c.L.(*ColRef); ok {
		if rc, ok := c.R.(*Const); ok {
			return cmpColConst(dst, c, b.Cols[lcol.Idx], c.Op, rc, sel, n)
		}
		if rcol, ok := c.R.(*ColRef); ok {
			return cmpColCol(dst, c, b.Cols[lcol.Idx], b.Cols[rcol.Idx], sel, n)
		}
	}
	if rcol, ok := c.R.(*ColRef); ok {
		if lc, ok := c.L.(*Const); ok {
			return cmpColConst(dst, c, b.Cols[rcol.Idx], flip(c.Op), lc, sel, n)
		}
	}
	return nil, false
}

// cmpColConst fuses col op const over the candidate rows.
func cmpColConst(dst []int32, c *Cmp, col storage.Column, op CmpOp, k *Const, sel []int32, n int) ([]int32, bool) {
	switch c.lk {
	case storage.KindInt64, storage.KindTime:
		switch col := col.(type) {
		case *storage.Int64Column:
			return selCmpOrd(dst, storage.Int64s(col), k.I, op, sel), true
		case *storage.TimeColumn:
			return selCmpOrd(dst, storage.Int64s(col), k.I, op, sel), true
		}
	case storage.KindFloat64:
		cv := k.F
		if k.K != storage.KindFloat64 {
			cv = float64(k.I)
		}
		switch col := col.(type) {
		case *storage.Float64Column:
			return selCmpOrd(dst, storage.Float64s(col), cv, op, sel), true
		case *storage.Int64Column:
			// Integer column promoted against a float constant.
			return selCmpIntAsFloat(dst, storage.Int64s(col), cv, op, sel), true
		}
	case storage.KindString:
		sc, ok := col.(*storage.StringColumn)
		if !ok {
			return nil, false
		}
		return selCmpString(dst, sc, k.S, op, sel, n), true
	case storage.KindBool:
		bc, ok := col.(*storage.BoolColumn)
		if !ok || (op != EQ && op != NE) {
			return nil, false
		}
		vals := storage.Bools(bc)
		out := storage.GrowSel(dst, selLen(sel, n))
		want := k.B == (op == EQ)
		if sel == nil {
			for i, v := range vals {
				if v == want {
					out = append(out, int32(i))
				}
			}
		} else {
			for _, i := range sel {
				if vals[i] == want {
					out = append(out, i)
				}
			}
		}
		return out, true
	}
	return nil, false
}

// cmpColCol fuses col op col when both sides share a physical
// representation; mixed int/float pairs fall back to the mask path.
func cmpColCol(dst []int32, c *Cmp, l, r storage.Column, sel []int32, n int) ([]int32, bool) {
	switch c.lk {
	case storage.KindInt64, storage.KindTime:
		return selCmpColsOrd(dst, storage.Int64s(l), storage.Int64s(r), c.Op, sel, n), true
	case storage.KindFloat64:
		lf, lok := l.(*storage.Float64Column)
		rf, rok := r.(*storage.Float64Column)
		if !lok || !rok {
			return nil, false
		}
		return selCmpColsOrd(dst, storage.Float64s(lf), storage.Float64s(rf), c.Op, sel, n), true
	}
	return nil, false
}

// selCmpOrd is the workhorse kernel: one pass over the candidates,
// comparing against a constant and collecting survivors.
func selCmpOrd[T int64 | float64](dst []int32, vals []T, cv T, op CmpOp, sel []int32) []int32 {
	out := storage.GrowSel(dst, selLen(sel, len(vals)))
	if sel == nil {
		switch op {
		case EQ:
			for i, v := range vals {
				if v == cv {
					out = append(out, int32(i))
				}
			}
		case NE:
			for i, v := range vals {
				if v != cv {
					out = append(out, int32(i))
				}
			}
		case LT:
			for i, v := range vals {
				if v < cv {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i, v := range vals {
				if v <= cv {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i, v := range vals {
				if v > cv {
					out = append(out, int32(i))
				}
			}
		case GE:
			for i, v := range vals {
				if v >= cv {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case EQ:
		for _, i := range sel {
			if vals[i] == cv {
				out = append(out, i)
			}
		}
	case NE:
		for _, i := range sel {
			if vals[i] != cv {
				out = append(out, i)
			}
		}
	case LT:
		for _, i := range sel {
			if vals[i] < cv {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range sel {
			if vals[i] <= cv {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range sel {
			if vals[i] > cv {
				out = append(out, i)
			}
		}
	case GE:
		for _, i := range sel {
			if vals[i] >= cv {
				out = append(out, i)
			}
		}
	}
	return out
}

// selCmpIntAsFloat compares an integer column against a float constant
// without materializing the promoted float vector; like selCmpOrd, the
// operator switch is hoisted out of the row loop.
func selCmpIntAsFloat(dst []int32, vals []int64, cv float64, op CmpOp, sel []int32) []int32 {
	out := storage.GrowSel(dst, selLen(sel, len(vals)))
	if sel == nil {
		switch op {
		case EQ:
			for i, v := range vals {
				if float64(v) == cv {
					out = append(out, int32(i))
				}
			}
		case NE:
			for i, v := range vals {
				if float64(v) != cv {
					out = append(out, int32(i))
				}
			}
		case LT:
			for i, v := range vals {
				if float64(v) < cv {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i, v := range vals {
				if float64(v) <= cv {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i, v := range vals {
				if float64(v) > cv {
					out = append(out, int32(i))
				}
			}
		case GE:
			for i, v := range vals {
				if float64(v) >= cv {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case EQ:
		for _, i := range sel {
			if float64(vals[i]) == cv {
				out = append(out, i)
			}
		}
	case NE:
		for _, i := range sel {
			if float64(vals[i]) != cv {
				out = append(out, i)
			}
		}
	case LT:
		for _, i := range sel {
			if float64(vals[i]) < cv {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range sel {
			if float64(vals[i]) <= cv {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range sel {
			if float64(vals[i]) > cv {
				out = append(out, i)
			}
		}
	case GE:
		for _, i := range sel {
			if float64(vals[i]) >= cv {
				out = append(out, i)
			}
		}
	}
	return out
}

// selCmpColsOrd compares two columns row-wise over the candidates,
// with the operator switch hoisted out of the row loop.
func selCmpColsOrd[T int64 | float64](dst []int32, l, r []T, op CmpOp, sel []int32, n int) []int32 {
	out := storage.GrowSel(dst, selLen(sel, n))
	if sel == nil {
		switch op {
		case EQ:
			for i := 0; i < n; i++ {
				if l[i] == r[i] {
					out = append(out, int32(i))
				}
			}
		case NE:
			for i := 0; i < n; i++ {
				if l[i] != r[i] {
					out = append(out, int32(i))
				}
			}
		case LT:
			for i := 0; i < n; i++ {
				if l[i] < r[i] {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i := 0; i < n; i++ {
				if l[i] <= r[i] {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i := 0; i < n; i++ {
				if l[i] > r[i] {
					out = append(out, int32(i))
				}
			}
		case GE:
			for i := 0; i < n; i++ {
				if l[i] >= r[i] {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case EQ:
		for _, i := range sel {
			if l[i] == r[i] {
				out = append(out, i)
			}
		}
	case NE:
		for _, i := range sel {
			if l[i] != r[i] {
				out = append(out, i)
			}
		}
	case LT:
		for _, i := range sel {
			if l[i] < r[i] {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range sel {
			if l[i] <= r[i] {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range sel {
			if l[i] > r[i] {
				out = append(out, i)
			}
		}
	case GE:
		for _, i := range sel {
			if l[i] >= r[i] {
				out = append(out, i)
			}
		}
	}
	return out
}

// selCmpString compares a dictionary-encoded column against a constant.
// Equality collapses to a dictionary-code comparison; ordered operators
// compare the decoded values.
func selCmpString(dst []int32, col *storage.StringColumn, cv string, op CmpOp, sel []int32, n int) []int32 {
	out := storage.GrowSel(dst, selLen(sel, n))
	if op == EQ || op == NE {
		code := col.Lookup(cv)
		if sel == nil {
			for i := 0; i < n; i++ {
				eq := code >= 0 && col.Code(i) == code
				if eq == (op == EQ) {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			eq := code >= 0 && col.Code(int(i)) == code
			if eq == (op == EQ) {
				out = append(out, i)
			}
		}
		return out
	}
	if sel == nil {
		switch op {
		case LT:
			for i := 0; i < n; i++ {
				if col.Value(i) < cv {
					out = append(out, int32(i))
				}
			}
		case LE:
			for i := 0; i < n; i++ {
				if col.Value(i) <= cv {
					out = append(out, int32(i))
				}
			}
		case GT:
			for i := 0; i < n; i++ {
				if col.Value(i) > cv {
					out = append(out, int32(i))
				}
			}
		default:
			for i := 0; i < n; i++ {
				if col.Value(i) >= cv {
					out = append(out, int32(i))
				}
			}
		}
		return out
	}
	switch op {
	case LT:
		for _, i := range sel {
			if col.Value(int(i)) < cv {
				out = append(out, i)
			}
		}
	case LE:
		for _, i := range sel {
			if col.Value(int(i)) <= cv {
				out = append(out, i)
			}
		}
	case GT:
		for _, i := range sel {
			if col.Value(int(i)) > cv {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if col.Value(int(i)) >= cv {
				out = append(out, i)
			}
		}
	}
	return out
}
