// Package expr provides the expression language shared by the planner
// and the execution engine: column references, constants, comparisons,
// boolean connectives and arithmetic, with vectorized evaluation over
// storage batches.
package expr

import (
	"fmt"
	"strings"
	"time"

	"sommelier/internal/storage"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

// String returns the SQL spelling of the operator.
func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/"}[op]
}

// Expr is a scalar expression. Expressions are built unbound (column
// references carry only names) and must be bound against an output
// column list before evaluation.
type Expr interface {
	fmt.Stringer
	// Bind resolves column references against names and reports the
	// result kind of the expression. It must be called before Eval.
	Bind(names []string, kinds []storage.Kind) (storage.Kind, error)
	// Eval evaluates the expression over every row of the batch.
	Eval(b *storage.Batch) storage.Column
	// Walk visits the expression tree in prefix order.
	Walk(fn func(Expr))
}

// ColRef references a column by (qualified) name. Before binding Idx
// is -1.
type ColRef struct {
	Name string
	Idx  int
	kind storage.Kind
}

// Col returns an unbound column reference.
func Col(name string) *ColRef { return &ColRef{Name: name, Idx: -1} }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Bind implements Expr.
func (c *ColRef) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	for i, n := range names {
		if matchName(n, c.Name) {
			c.Idx = i
			c.kind = kinds[i]
			return c.kind, nil
		}
	}
	return storage.KindInvalid, fmt.Errorf("expr: unknown column %q (have %v)", c.Name, names)
}

// matchName matches a reference against an output name; an unqualified
// reference matches a qualified output name by its last component.
func matchName(have, want string) bool {
	if have == want {
		return true
	}
	if !strings.Contains(want, ".") {
		if i := strings.LastIndexByte(have, '.'); i >= 0 && have[i+1:] == want {
			return true
		}
	}
	return false
}

// Eval implements Expr.
func (c *ColRef) Eval(b *storage.Batch) storage.Column { return b.Cols[c.Idx] }

// Walk implements Expr.
func (c *ColRef) Walk(fn func(Expr)) { fn(c) }

// Const is a literal value.
type Const struct {
	K storage.Kind
	I int64 // KindInt64 and KindTime (ns since epoch)
	F float64
	S string
	B bool

	// memo caches the constant column of the last Eval so repeated
	// batches of the same length share one vector. Expressions are
	// cloned per operator and operators are single-goroutine, so the
	// memo is unsynchronized; columns are immutable, so clones sharing
	// a memo are safe.
	memo    storage.Column
	memoLen int
}

// Int returns an int64 literal.
func Int(v int64) *Const { return &Const{K: storage.KindInt64, I: v} }

// Float returns a float64 literal.
func Float(v float64) *Const { return &Const{K: storage.KindFloat64, F: v} }

// Str returns a string literal.
func Str(v string) *Const { return &Const{K: storage.KindString, S: v} }

// Bool returns a boolean literal.
func Bool(v bool) *Const { return &Const{K: storage.KindBool, B: v} }

// Time returns a timestamp literal from nanoseconds since epoch.
func Time(ns int64) *Const { return &Const{K: storage.KindTime, I: ns} }

// TimeVal returns a timestamp literal from a time.Time.
func TimeVal(t time.Time) *Const { return Time(t.UnixNano()) }

// String implements Expr.
func (c *Const) String() string {
	switch c.K {
	case storage.KindInt64:
		return fmt.Sprintf("%d", c.I)
	case storage.KindFloat64:
		return fmt.Sprintf("%g", c.F)
	case storage.KindString:
		return fmt.Sprintf("'%s'", c.S)
	case storage.KindBool:
		return fmt.Sprintf("%t", c.B)
	case storage.KindTime:
		return fmt.Sprintf("'%s'", time.Unix(0, c.I).UTC().Format("2006-01-02T15:04:05.000"))
	}
	return "NULL"
}

// Bind implements Expr.
func (c *Const) Bind([]string, []storage.Kind) (storage.Kind, error) { return c.K, nil }

// Eval implements Expr.
func (c *Const) Eval(b *storage.Batch) storage.Column {
	n := b.Len()
	if c.memo != nil && c.memoLen == n {
		return c.memo
	}
	col := c.eval(n)
	c.memo, c.memoLen = col, n
	return col
}

func (c *Const) eval(n int) storage.Column {
	switch c.K {
	case storage.KindInt64:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = c.I
		}
		return storage.NewInt64Column(vals)
	case storage.KindTime:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = c.I
		}
		return storage.NewTimeColumn(vals)
	case storage.KindFloat64:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = c.F
		}
		return storage.NewFloat64Column(vals)
	case storage.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = c.B
		}
		return storage.NewBoolColumn(vals)
	case storage.KindString:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = c.S
		}
		return storage.NewStringColumn(vals)
	}
	panic("expr: Eval on invalid const")
}

// Walk implements Expr.
func (c *Const) Walk(fn func(Expr)) { fn(c) }

// Param is a statement parameter placeholder (a `?` marker, or a
// literal the parser auto-parameterized). A compiled plan carries Param
// nodes unbound; the executor substitutes the per-execution argument
// values (SubstParams) before any operator binds the expression, so a
// Param never survives to Bind or Eval in a well-formed execution.
type Param struct {
	// Ord is the zero-based parameter ordinal, in source order.
	Ord int
}

// NewParam returns the placeholder for parameter ord (zero-based).
func NewParam(ord int) *Param { return &Param{Ord: ord} }

// String implements Expr.
func (p *Param) String() string { return fmt.Sprintf("?%d", p.Ord+1) }

// Bind implements Expr. A parameter cannot be typed without a value;
// reaching Bind means the expression escaped substitution (e.g. a
// parameter outside the WHERE clause).
func (p *Param) Bind([]string, []storage.Kind) (storage.Kind, error) {
	return storage.KindInvalid, fmt.Errorf("expr: parameter ?%d not bound to a value (parameters are only supported in WHERE predicates)", p.Ord+1)
}

// Eval implements Expr.
func (p *Param) Eval(*storage.Batch) storage.Column {
	panic(fmt.Sprintf("expr: Eval of unsubstituted parameter ?%d", p.Ord+1))
}

// Walk implements Expr.
func (p *Param) Walk(fn func(Expr)) { fn(p) }

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
	lk   storage.Kind
}

// NewCmp returns the comparison l op r.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// String implements Expr.
func (c *Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// Bind implements Expr.
func (c *Cmp) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	lk, err := c.L.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	rk, err := c.R.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	// SQL writes timestamp literals as strings ('2010-01-12T22:15:00');
	// coerce a string constant compared against a TIMESTAMP column.
	if lk == storage.KindTime && rk == storage.KindString {
		if k, ok := c.R.(*Const); ok {
			if err := coerceTimeConst(k); err != nil {
				return storage.KindInvalid, err
			}
			rk = storage.KindTime
		}
	}
	if rk == storage.KindTime && lk == storage.KindString {
		if k, ok := c.L.(*Const); ok {
			if err := coerceTimeConst(k); err != nil {
				return storage.KindInvalid, err
			}
			lk = storage.KindTime
		}
	}
	if !comparable(lk, rk) {
		return storage.KindInvalid, fmt.Errorf("expr: cannot compare %v with %v in %s", lk, rk, c)
	}
	c.lk = promote(lk, rk)
	return storage.KindBool, nil
}

// timeLayouts are the accepted timestamp literal formats.
var timeLayouts = []string{
	"2006-01-02T15:04:05.000",
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02",
}

func coerceTimeConst(k *Const) error {
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, k.S); err == nil {
			k.K = storage.KindTime
			k.I = t.UnixNano()
			return nil
		}
	}
	return fmt.Errorf("expr: %q is not a timestamp literal", k.S)
}

func comparable(a, b storage.Kind) bool {
	if a == b {
		return true
	}
	num := func(k storage.Kind) bool { return k == storage.KindInt64 || k == storage.KindFloat64 }
	if num(a) && num(b) {
		return true
	}
	tm := func(k storage.Kind) bool { return k == storage.KindTime || k == storage.KindInt64 }
	return tm(a) && tm(b)
}

func promote(a, b storage.Kind) storage.Kind {
	if a == b {
		return a
	}
	if a == storage.KindFloat64 || b == storage.KindFloat64 {
		return storage.KindFloat64
	}
	if a == storage.KindTime || b == storage.KindTime {
		return storage.KindTime
	}
	return a
}

// Eval implements Expr.
func (c *Cmp) Eval(b *storage.Batch) storage.Column {
	l := c.L.Eval(b)
	r := c.R.Eval(b)
	n := b.Len()
	out := make([]bool, n)
	switch c.lk {
	case storage.KindFloat64:
		lv, rv := asFloats(l), asFloats(r)
		cmpLoop(out, c.Op, lv, rv)
	case storage.KindInt64, storage.KindTime:
		lv, rv := storage.Int64s(l), storage.Int64s(r)
		cmpLoop(out, c.Op, lv, rv)
	case storage.KindBool:
		lv, rv := storage.Bools(l), storage.Bools(r)
		for i := range out {
			switch c.Op {
			case EQ:
				out[i] = lv[i] == rv[i]
			case NE:
				out[i] = lv[i] != rv[i]
			default:
				panic("expr: ordered comparison on booleans")
			}
		}
	case storage.KindString:
		ls, rs := storage.Strings(l), storage.Strings(r)
		// Fast path: equality against a constant collapses to a
		// dictionary code comparison.
		if rc, ok := c.R.(*Const); ok && (c.Op == EQ || c.Op == NE) {
			code := ls.Lookup(rc.S)
			for i := range out {
				eq := ls.Code(i) == code && code >= 0
				if c.Op == EQ {
					out[i] = eq
				} else {
					out[i] = !eq
				}
			}
			break
		}
		for i := range out {
			a, bb := ls.Value(i), rs.Value(i)
			switch c.Op {
			case EQ:
				out[i] = a == bb
			case NE:
				out[i] = a != bb
			case LT:
				out[i] = a < bb
			case LE:
				out[i] = a <= bb
			case GT:
				out[i] = a > bb
			case GE:
				out[i] = a >= bb
			}
		}
	default:
		panic(fmt.Sprintf("expr: Eval cmp on %v", c.lk))
	}
	return storage.NewBoolColumn(out)
}

func cmpLoop[T int64 | float64](out []bool, op CmpOp, l, r []T) {
	switch op {
	case EQ:
		for i := range out {
			out[i] = l[i] == r[i]
		}
	case NE:
		for i := range out {
			out[i] = l[i] != r[i]
		}
	case LT:
		for i := range out {
			out[i] = l[i] < r[i]
		}
	case LE:
		for i := range out {
			out[i] = l[i] <= r[i]
		}
	case GT:
		for i := range out {
			out[i] = l[i] > r[i]
		}
	case GE:
		for i := range out {
			out[i] = l[i] >= r[i]
		}
	}
}

func asFloats(c storage.Column) []float64 {
	if c.Kind() == storage.KindFloat64 {
		return storage.Float64s(c)
	}
	iv := storage.Int64s(c)
	out := make([]float64, len(iv))
	for i, v := range iv {
		out[i] = float64(v)
	}
	return out
}

// Walk implements Expr.
func (c *Cmp) Walk(fn func(Expr)) {
	fn(c)
	c.L.Walk(fn)
	c.R.Walk(fn)
}

// And is the conjunction of its operands.
type And struct{ L, R Expr }

// NewAnd conjoins l and r.
func NewAnd(l, r Expr) *And { return &And{L: l, R: r} }

// String implements Expr.
func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Bind implements Expr.
func (a *And) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	return bindLogic("AND", a.L, a.R, names, kinds)
}

// Eval implements Expr. The right operand is skipped when the left
// already decides every row (all false), and the operand columns are
// reused unchanged in the degenerate cases, avoiding the output
// allocation.
func (a *And) Eval(b *storage.Batch) storage.Column {
	lc := a.L.Eval(b)
	l := storage.Bools(lc)
	anyTrue, anyFalse := boolSummary(l)
	if !anyTrue {
		return lc
	}
	if !anyFalse {
		return a.R.Eval(b)
	}
	r := storage.Bools(a.R.Eval(b))
	out := make([]bool, len(l))
	for i := range out {
		out[i] = l[i] && r[i]
	}
	return storage.NewBoolColumn(out)
}

// boolSummary reports whether vals contains any true and any false,
// bailing out as soon as both are seen so mixed batches pay O(1), not
// an extra full pass.
func boolSummary(vals []bool) (anyTrue, anyFalse bool) {
	for _, v := range vals {
		if v {
			anyTrue = true
		} else {
			anyFalse = true
		}
		if anyTrue && anyFalse {
			return
		}
	}
	return
}

// Walk implements Expr.
func (a *And) Walk(fn func(Expr)) {
	fn(a)
	a.L.Walk(fn)
	a.R.Walk(fn)
}

// Or is the disjunction of its operands.
type Or struct{ L, R Expr }

// NewOr disjoins l and r.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

// String implements Expr.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Bind implements Expr.
func (o *Or) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	return bindLogic("OR", o.L, o.R, names, kinds)
}

// Eval implements Expr. The right operand is skipped when the left
// already accepts every row.
func (o *Or) Eval(b *storage.Batch) storage.Column {
	lc := o.L.Eval(b)
	l := storage.Bools(lc)
	anyTrue, anyFalse := boolSummary(l)
	if !anyFalse {
		return lc
	}
	if !anyTrue {
		return o.R.Eval(b)
	}
	r := storage.Bools(o.R.Eval(b))
	out := make([]bool, len(l))
	for i := range out {
		out[i] = l[i] || r[i]
	}
	return storage.NewBoolColumn(out)
}

// Walk implements Expr.
func (o *Or) Walk(fn func(Expr)) {
	fn(o)
	o.L.Walk(fn)
	o.R.Walk(fn)
}

func bindLogic(op string, l, r Expr, names []string, kinds []storage.Kind) (storage.Kind, error) {
	lk, err := l.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	rk, err := r.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	if lk != storage.KindBool || rk != storage.KindBool {
		return storage.KindInvalid, fmt.Errorf("expr: %s needs boolean operands, got %v and %v", op, lk, rk)
	}
	return storage.KindBool, nil
}

// Not negates its operand.
type Not struct{ E Expr }

// NewNot negates e.
func NewNot(e Expr) *Not { return &Not{E: e} }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

// Bind implements Expr.
func (n *Not) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	k, err := n.E.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	if k != storage.KindBool {
		return storage.KindInvalid, fmt.Errorf("expr: NOT needs a boolean operand, got %v", k)
	}
	return storage.KindBool, nil
}

// Eval implements Expr.
func (n *Not) Eval(b *storage.Batch) storage.Column {
	v := storage.Bools(n.E.Eval(b))
	out := make([]bool, len(v))
	for i := range out {
		out[i] = !v[i]
	}
	return storage.NewBoolColumn(out)
}

// Walk implements Expr.
func (n *Not) Walk(fn func(Expr)) {
	fn(n)
	n.E.Walk(fn)
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
	k    storage.Kind
}

// NewArith returns l op r.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// String implements Expr.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Bind implements Expr.
func (a *Arith) Bind(names []string, kinds []storage.Kind) (storage.Kind, error) {
	lk, err := a.L.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	rk, err := a.R.Bind(names, kinds)
	if err != nil {
		return storage.KindInvalid, err
	}
	num := func(k storage.Kind) bool { return k == storage.KindInt64 || k == storage.KindFloat64 }
	if !num(lk) || !num(rk) {
		return storage.KindInvalid, fmt.Errorf("expr: arithmetic needs numeric operands, got %v and %v", lk, rk)
	}
	a.k = promote(lk, rk)
	if a.Op == Div {
		a.k = storage.KindFloat64
	}
	return a.k, nil
}

// Eval implements Expr.
func (a *Arith) Eval(b *storage.Batch) storage.Column {
	if a.k == storage.KindFloat64 {
		l, r := asFloats(a.L.Eval(b)), asFloats(a.R.Eval(b))
		out := make([]float64, len(l))
		switch a.Op {
		case Add:
			for i := range out {
				out[i] = l[i] + r[i]
			}
		case Sub:
			for i := range out {
				out[i] = l[i] - r[i]
			}
		case Mul:
			for i := range out {
				out[i] = l[i] * r[i]
			}
		case Div:
			for i := range out {
				out[i] = l[i] / r[i]
			}
		}
		return storage.NewFloat64Column(out)
	}
	l, r := storage.Int64s(a.L.Eval(b)), storage.Int64s(a.R.Eval(b))
	out := make([]int64, len(l))
	switch a.Op {
	case Add:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case Mul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	}
	return storage.NewInt64Column(out)
}

// Walk implements Expr.
func (a *Arith) Walk(fn func(Expr)) {
	fn(a)
	a.L.Walk(fn)
	a.R.Walk(fn)
}
