// Package plan defines the logical plan IR and compiles SQL query
// specifications into it: Build performs name resolution and typing
// and materializes a deliberately unoptimized operator tree, while the
// rule-based optimizer (internal/opt) rewrites that tree — predicate
// pushdown, range inference, projection pruning, index-key
// recognition, and the paper's compile-time join ordering. The colored
// query graph (metadata vertices red, actual-data vertices black;
// red/blue/black edges), the join-order rules R1–R4 that force every
// metadata join below any actual-data access, and the decomposition of
// a plan Q into the metadata branch Qf (evaluated in stage one to
// identify the chunks of interest) and the remainder Qs live here; the
// optimizer drives them.
package plan

import (
	"fmt"
	"strings"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions. AggNone marks a plain (non-aggregated) select
// item.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStddev
)

// String returns the SQL name of the function.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggStddev:
		return "STDDEV"
	default:
		return ""
	}
}

// Node is a logical plan operator. Every node knows its output schema
// (qualified column names and kinds).
type Node interface {
	// Names returns the qualified output column names.
	Names() []string
	// Kinds returns the output column kinds, aligned with Names.
	Kinds() []storage.Kind
	// Children returns the input nodes.
	Children() []Node
	// String renders the operator (not the subtree).
	String() string
}

// IndexHint is the optimizer's index-key recognition annotation on a
// metadata scan: the filter pins every column of some hash index with
// an equality against a constant or parameter. The executor materializes
// Key into an index lookup at run time (substituting parameters) and
// applies Residual on top; Filter stays intact as the fallback when no
// matching index exists in the execution environment.
type IndexHint struct {
	// Cols are the indexed columns (unqualified, in index key order).
	Cols []string
	// Kinds are the schema kinds of Cols, for run-time validation of
	// parameter values.
	Kinds []storage.Kind
	// Key holds one equality operand per indexed column: an expr.Const
	// or expr.Param.
	Key []expr.Expr
	// Residual is the conjunction of filter conjuncts the key did not
	// consume (nil when the key covers the whole filter).
	Residual expr.Expr
}

// Scan reads one base table; Filter is the pushed-down selection over
// this table only (may be nil). For actual-data tables the executor's
// run-time optimizer replaces the Scan by a union of cache-scans and
// chunk-accesses once stage one has identified the chunks.
type Scan struct {
	Table  string
	Class  table.Class
	Filter expr.Expr
	// Cols, when non-nil, restricts the scan to these schema column
	// indexes (the optimizer's projection pruning); names/kinds are
	// narrowed accordingly. Nil reads the full schema.
	Cols []int
	// Index is the optimizer's index-key recognition annotation (nil
	// when no index applies).
	Index *IndexHint
	names []string
	kinds []storage.Kind
	width int // full schema width, for rendering pruned scans
}

// NewScan builds a scan of the cataloged table.
func NewScan(t *table.Table, filter expr.Expr) *Scan {
	return &Scan{
		Table:  t.Name,
		Class:  t.Class,
		Filter: filter,
		names:  t.Schema.QualifiedNames(t.Name),
		kinds:  t.Schema.Kinds(),
		width:  t.Schema.Width(),
	}
}

// NewScanCols builds a scan reading only the schema columns at idxs (in
// the given order).
func NewScanCols(t *table.Table, filter expr.Expr, idxs []int) *Scan {
	if idxs == nil {
		return NewScan(t, filter)
	}
	full, kinds := t.Schema.QualifiedNames(t.Name), t.Schema.Kinds()
	s := &Scan{Table: t.Name, Class: t.Class, Filter: filter, Cols: idxs, width: t.Schema.Width()}
	for _, i := range idxs {
		s.names = append(s.names, full[i])
		s.kinds = append(s.kinds, kinds[i])
	}
	return s
}

// Names implements Node.
func (s *Scan) Names() []string { return s.names }

// Kinds implements Node.
func (s *Scan) Kinds() []storage.Kind { return s.kinds }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	var sb strings.Builder
	sb.WriteString("scan(")
	sb.WriteString(s.Table)
	if s.Cols != nil {
		fmt.Fprintf(&sb, " cols=%d/%d", len(s.Cols), s.width)
	}
	if s.Index != nil {
		fmt.Fprintf(&sb, " index=%v", s.Index.Cols)
	}
	if s.Filter != nil {
		sb.WriteString(" | ")
		sb.WriteString(s.Filter.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Join is an inner equi-join (cross product when Preds is empty).
type Join struct {
	L, R  Node
	Preds []table.JoinPred
	// Out, when non-nil, restricts the join's output to these positions
	// of the concatenated L++R schema (the optimizer's projection pruning
	// carried through the join); names/kinds are narrowed accordingly.
	Out []int
	// Band, when non-nil, is a time band the join applies on top of its
	// keys; the optimizer attaches only bands the rest of the query
	// implies, so the result is unchanged.
	Band  *Band
	names []string
	kinds []storage.Kind
}

// Band keeps a joined pair only if Lo − Slack < T < Hi holds, where T
// is a column of one input of the join and Lo, Hi columns of the other,
// all int64-backed. The comparison is modulo 2^64, as the truncation
// that implies the band wraps near the ends of int64; a pair with
// Hi ≤ Lo is always kept.
type Band struct {
	T, Lo, Hi string
	Slack     time.Duration
}

// Cols lists the columns the band reads.
func (b *Band) Cols() []string { return []string{b.T, b.Lo, b.Hi} }

// String renders the band as EXPLAIN shows it.
func (b *Band) String() string {
	slack := b.Slack.String() // "1h0m0s": drop the zero minutes and seconds
	if strings.HasSuffix(slack, "m0s") {
		slack = slack[:len(slack)-2]
	}
	if strings.HasSuffix(slack, "h0m") {
		slack = slack[:len(slack)-2]
	}
	return fmt.Sprintf("band(%s-%s < %s < %s)", b.Lo, slack, b.T, b.Hi)
}

// NewJoin builds a join node emitting every column of both inputs.
func NewJoin(l, r Node, preds []table.JoinPred) *Join {
	j := &Join{L: l, R: r, Preds: preds}
	j.SetOut(nil)
	return j
}

// SetOut narrows the join's output to the given positions of L++R (nil
// restores the full schema).
func (j *Join) SetOut(out []int) {
	names := append(append([]string{}, j.L.Names()...), j.R.Names()...)
	kinds := append(append([]storage.Kind{}, j.L.Kinds()...), j.R.Kinds()...)
	j.Out, j.names, j.kinds = out, names, kinds
	if out == nil {
		return
	}
	j.names, j.kinds = make([]string, len(out)), make([]storage.Kind, len(out))
	for i, o := range out {
		j.names[i], j.kinds[i] = names[o], kinds[o]
	}
}

// Names implements Node.
func (j *Join) Names() []string { return j.names }

// Kinds implements Node.
func (j *Join) Kinds() []storage.Kind { return j.kinds }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// String implements Node.
func (j *Join) String() string {
	if len(j.Preds) == 0 {
		return "cross"
	}
	parts := make([]string, len(j.Preds))
	for i, p := range j.Preds {
		parts[i] = p.Left + "=" + p.Right
	}
	s := "join(" + strings.Join(parts, ",")
	if j.Band != nil {
		s += " " + j.Band.String()
	}
	if j.Out != nil {
		s += fmt.Sprintf(" out=%d/%d", len(j.Out), len(j.L.Names())+len(j.R.Names()))
	}
	return s + ")"
}

// Select filters rows by a residual predicate that could not be pushed
// into a scan.
type Select struct {
	In   Node
	Pred expr.Expr
}

// NewSelect builds a selection node.
func NewSelect(in Node, pred expr.Expr) *Select { return &Select{In: in, Pred: pred} }

// Names implements Node.
func (s *Select) Names() []string { return s.In.Names() }

// Kinds implements Node.
func (s *Select) Kinds() []storage.Kind { return s.In.Kinds() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.In} }

// String implements Node.
func (s *Select) String() string { return fmt.Sprintf("select(%s)", s.Pred) }

// OutputCol is one projected output column.
type OutputCol struct {
	Name string
	Expr expr.Expr
	Kind storage.Kind
}

// Project evaluates scalar expressions into named output columns.
type Project struct {
	In   Node
	Cols []OutputCol
}

// NewProject builds a projection; expressions are bound against the
// input schema to determine output kinds.
func NewProject(in Node, cols []OutputCol) (*Project, error) {
	for i := range cols {
		k, err := cols[i].Expr.Bind(in.Names(), in.Kinds())
		if err != nil {
			return nil, err
		}
		cols[i].Kind = k
	}
	return &Project{In: in, Cols: cols}, nil
}

// Names implements Node.
func (p *Project) Names() []string {
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.Name
	}
	return out
}

// Kinds implements Node.
func (p *Project) Kinds() []storage.Kind {
	out := make([]storage.Kind, len(p.Cols))
	for i, c := range p.Cols {
		out[i] = c.Kind
	}
	return out
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.In} }

// String implements Node.
func (p *Project) String() string { return fmt.Sprintf("project(%d cols)", len(p.Cols)) }

// AggSpec is one aggregate output.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil for COUNT(*)
	Name string
}

// Aggregate groups by columns and computes aggregates per group (or one
// global group when GroupBy is empty).
type Aggregate struct {
	In      Node
	GroupBy []string
	Aggs    []AggSpec
	names   []string
	kinds   []storage.Kind
}

// NewAggregate builds an aggregation node, binding aggregate arguments
// against the input schema.
func NewAggregate(in Node, groupBy []string, aggs []AggSpec) (*Aggregate, error) {
	a := &Aggregate{In: in, GroupBy: groupBy, Aggs: aggs}
	inNames, inKinds := in.Names(), in.Kinds()
	for _, g := range groupBy {
		c := expr.Col(g)
		k, err := c.Bind(inNames, inKinds)
		if err != nil {
			return nil, err
		}
		a.names = append(a.names, g)
		a.kinds = append(a.kinds, k)
	}
	for i := range aggs {
		spec := &aggs[i]
		var argKind storage.Kind
		if spec.Arg != nil {
			k, err := spec.Arg.Bind(inNames, inKinds)
			if err != nil {
				return nil, err
			}
			argKind = k
		} else if spec.Func != AggCount {
			return nil, fmt.Errorf("plan: %s requires an argument", spec.Func)
		}
		a.names = append(a.names, spec.Name)
		a.kinds = append(a.kinds, aggResultKind(spec.Func, argKind))
	}
	a.Aggs = aggs
	return a, nil
}

func aggResultKind(f AggFunc, arg storage.Kind) storage.Kind {
	switch f {
	case AggCount:
		return storage.KindInt64
	case AggAvg, AggStddev:
		return storage.KindFloat64
	case AggSum:
		if arg == storage.KindInt64 {
			return storage.KindInt64
		}
		return storage.KindFloat64
	default: // MIN, MAX keep the argument kind
		return arg
	}
}

// Names implements Node.
func (a *Aggregate) Names() []string { return a.names }

// Kinds implements Node.
func (a *Aggregate) Kinds() []storage.Kind { return a.kinds }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.In} }

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("aggregate(group=%v, aggs=%d)", a.GroupBy, len(a.Aggs))
}

// OrderKey is one sort key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Sort orders rows by the given keys.
type Sort struct {
	In   Node
	Keys []OrderKey
}

// NewSort builds a sort node after validating the keys.
func NewSort(in Node, keys []OrderKey) (*Sort, error) {
	for _, k := range keys {
		if _, err := expr.Col(k.Col).Bind(in.Names(), in.Kinds()); err != nil {
			return nil, err
		}
	}
	return &Sort{In: in, Keys: keys}, nil
}

// Names implements Node.
func (s *Sort) Names() []string { return s.In.Names() }

// Kinds implements Node.
func (s *Sort) Kinds() []storage.Kind { return s.In.Kinds() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.In} }

// String implements Node.
func (s *Sort) String() string { return fmt.Sprintf("sort(%v)", s.Keys) }

// TopK keeps the first N rows of the input ordered by Keys: the fusion
// of Sort+Limit the topk optimizer rule produces, executed as a
// bounded-memory selection so the sort never materializes more than
// O(N) rows.
type TopK struct {
	In   Node
	Keys []OrderKey
	N    int
}

// Names implements Node.
func (t *TopK) Names() []string { return t.In.Names() }

// Kinds implements Node.
func (t *TopK) Kinds() []storage.Kind { return t.In.Kinds() }

// Children implements Node.
func (t *TopK) Children() []Node { return []Node{t.In} }

// String implements Node.
func (t *TopK) String() string { return fmt.Sprintf("topk(%v, %d)", t.Keys, t.N) }

// Limit keeps the first N rows.
type Limit struct {
	In Node
	N  int
}

// Names implements Node.
func (l *Limit) Names() []string { return l.In.Names() }

// Kinds implements Node.
func (l *Limit) Kinds() []storage.Kind { return l.In.Kinds() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.In} }

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("limit(%d)", l.N) }

// RenderAnnotated pretty-prints a plan subtree, marking the Qf branch
// in the spirit of the paper's bold-face notation, and appends the
// annotation annot returns (if any; annot may be nil) to each operator
// line: EXPLAIN ANALYZE's per-operator profile.
func RenderAnnotated(root Node, qf Node, annot func(Node) string) string {
	var sb strings.Builder
	var rec func(n Node, depth int, inQf bool)
	rec = func(n Node, depth int, inQf bool) {
		if n == qf {
			inQf = true
		}
		sb.WriteString(strings.Repeat("  ", depth))
		if inQf {
			sb.WriteString("[Qf] ")
		}
		sb.WriteString(n.String())
		if annot != nil {
			if a := annot(n); a != "" {
				sb.WriteString("   -- ")
				sb.WriteString(a)
			}
		}
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1, inQf)
		}
	}
	rec(root, 0, false)
	return sb.String()
}
