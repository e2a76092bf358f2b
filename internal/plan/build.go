package plan

import (
	"fmt"
	"strings"

	"sommelier/internal/expr"
	"sommelier/internal/table"
)

// SelectItem is one item of the SELECT clause: a scalar expression or
// an aggregate over one.
type SelectItem struct {
	Agg   AggFunc
	Expr  expr.Expr // nil only for COUNT(*)
	Alias string
}

// Query is the logical query specification produced by the SQL parser
// or constructed programmatically.
type Query struct {
	Select  []SelectItem
	From    string // view or base table name
	Where   expr.Expr
	GroupBy []string
	OrderBy []OrderKey
	Limit   int // <= 0 means no limit
	// SamplePct, when in (0, 100), asks for approximative answering
	// (the paper's §VIII): the executor evaluates the query over a
	// deterministic sample of that percentage of the selected chunks,
	// trading accuracy for bounded chunk-loading time.
	SamplePct float64
}

// Plan is a compiled query: the operator tree plus the Qf marker that
// tells the executor where stage one ends.
//
// Build produces the unoptimized form: name-resolved, typed, with every
// WHERE conjunct evaluated in a residual selection above the join tree
// and Qf unset. The rule-based optimizer (internal/opt) rewrites Root,
// sets Qf/Graph/Order and records its work in RuleLog. A fully built
// (and optimized) Plan is immutable: executions bind expression clones,
// so one Plan may be shared by any number of concurrent queries — the
// property the engine's compiled-plan cache relies on.
type Plan struct {
	Root Node
	// Qf is the highest sub-plan whose leaves are only metadata
	// tables; nil when the query has no metadata table (or when the
	// Qf/Qs split has not been applied). The executor evaluates it
	// first to identify the chunks of interest.
	Qf Node
	// TwoStage reports whether the plan touches actual data and thus
	// requires the run-time rewrite between the stages.
	TwoStage bool
	// Tables referenced, by class.
	GMdTables, DMdTables, ADTables []string
	// Graph and Order document the join-order decision for
	// inspection and the ablation experiments (set by the optimizer's
	// joinorder rule).
	Graph *Graph
	Order *Order
	// SamplePct carries the query's approximative-answering request
	// (0 = exact).
	SamplePct float64

	// Spec is the name-qualified private copy of the query this plan
	// was compiled from: the optimizer's input, and the source of the
	// per-query derived-metadata preparation (Algorithm 1).
	Spec *Query
	// FromTables lists the resolved FROM tables in resolution order.
	FromTables []string
	// BaseJoins are the equality join predicates: the view definition's
	// joins plus two-table equality conjuncts lifted out of WHERE.
	BaseJoins []table.JoinPred
	// Conjuncts are the remaining WHERE conjuncts (everything that is
	// not a join predicate), in source order.
	Conjuncts []expr.Expr
	// NumParams is the number of parameter placeholders the plan's
	// predicates reference; executions must supply that many arguments.
	NumParams int
	// RuleLog records what each optimizer rule did ("rule: detail"),
	// in pipeline order; empty for an unoptimized plan.
	RuleLog []string
}

// Type returns the paper's query type taxonomy (Table I): which classes
// of data the query refers to.
//
//	T1: GMd            T2: DMd           T3: DMd & GMd
//	T4: GMd & AD       T5: DMd & GMd & AD
//
// Queries outside the taxonomy (e.g. AD only) return 0.
func (p *Plan) Type() int {
	g, d, a := len(p.GMdTables) > 0, len(p.DMdTables) > 0, len(p.ADTables) > 0
	switch {
	case g && !d && !a:
		return 1
	case d && !g && !a:
		return 2
	case d && g && !a:
		return 3
	case g && !d && a:
		return 4
	case g && d && a:
		return 5
	default:
		return 0
	}
}

// Build resolves and types a query against the catalog: view expansion,
// name qualification, join-predicate extraction, aggregation and
// ordering. The produced plan is deliberately unoptimized — all
// non-join WHERE conjuncts sit in one selection above a join tree in
// FROM resolution order, and Qf is unset; internal/opt's rule pipeline
// performs constant folding, predicate pushdown, range-predicate
// inference, R1–R4 join ordering with the Qf/Qs split, projection
// pruning and index-key recognition on top. The query specification is
// not modified — compilation qualifies names on a private copy, so one
// *Query may be Built concurrently by any number of goroutines.
func Build(cat *table.Catalog, q *Query) (*Plan, error) {
	if q.SamplePct < 0 || q.SamplePct > 100 {
		return nil, fmt.Errorf("plan: SAMPLE %v outside [0, 100]", q.SamplePct)
	}
	qc := *q
	qc.Select = append([]SelectItem(nil), q.Select...)
	qc.GroupBy = append([]string(nil), q.GroupBy...)
	qc.OrderBy = append([]OrderKey(nil), q.OrderBy...)
	q = &qc
	tabs, joins, err := resolveFrom(cat, q.From)
	if err != nil {
		return nil, err
	}
	// Qualify every column reference so predicates can be classified
	// by table.
	if q.Where != nil {
		q.Where = expr.Clone(q.Where)
		if err := qualifyExpr(tabs, q.Where); err != nil {
			return nil, err
		}
	}
	for i := range q.Select {
		if q.Select[i].Expr != nil {
			q.Select[i].Expr = expr.Clone(q.Select[i].Expr)
			if err := qualifyExpr(tabs, q.Select[i].Expr); err != nil {
				return nil, err
			}
		}
	}
	for i, g := range q.GroupBy {
		qn, err := qualifyName(tabs, g)
		if err != nil {
			return nil, err
		}
		q.GroupBy[i] = qn
	}
	for i, k := range q.OrderBy {
		qn, err := qualifyName(tabs, k.Col)
		if err != nil {
			return nil, err
		}
		q.OrderBy[i].Col = qn
	}

	// Classify WHERE conjuncts: two-table equality predicates become
	// join edges (part of name resolution — they connect the FROM
	// tables); everything else stays a residual conjunct for the
	// optimizer to place.
	var conjs []expr.Expr
	for _, c := range expr.Conjuncts(q.Where) {
		if refTabs := expr.Tables(c); len(refTabs) == 2 {
			if l, r, ok := expr.JoinEq(c); ok {
				lt, _, err := table.SplitQualified(l)
				if err != nil {
					return nil, err
				}
				rt, _, err := table.SplitQualified(r)
				if err != nil {
					return nil, err
				}
				if lt == rt {
					return nil, fmt.Errorf("plan: self-join predicate %s not supported", c)
				}
				joins = append(joins, table.JoinPred{Left: l, Right: r})
				continue
			}
		}
		conjs = append(conjs, c)
	}

	p := &Plan{Spec: q, BaseJoins: joins, Conjuncts: conjs}
	for _, t := range tabs {
		p.FromTables = append(p.FromTables, t.Name)
		switch t.Class {
		case table.GivenMetadata:
			p.GMdTables = append(p.GMdTables, t.Name)
		case table.DerivedMetadata:
			p.DMdTables = append(p.DMdTables, t.Name)
		case table.ActualData:
			p.ADTables = append(p.ADTables, t.Name)
		}
	}
	p.TwoStage = len(p.ADTables) > 0
	if q.SamplePct > 0 && q.SamplePct < 100 {
		p.SamplePct = q.SamplePct
	}
	p.NumParams = expr.NumParams(q.Where)

	// Materialize the naive tree: scans without filters, joined in FROM
	// resolution order, all residual conjuncts in one selection on top.
	root, err := Assemble(cat, p, nil, nil, nil, p.Conjuncts)
	if err != nil {
		return nil, err
	}
	p.Root = root
	return p, nil
}

// Assemble materializes the operator tree of a resolved plan:
//
//   - scans of p.FromTables, optionally filtered (pushdown[table]) and
//     narrowed to the schema columns in prune[table];
//   - joins following ord (nil joins in FROM resolution order), with
//     every applicable BaseJoins predicate attached; when ord is
//     non-nil, the Qf marker is set after its red phase and
//     metadata-only residual conjuncts are evaluated inside Qf;
//   - the remaining residual conjuncts as one selection;
//   - aggregation / projection / ordering / limit from p.Spec.
//
// Build calls it with everything nil (the unoptimized tree); the
// optimizer calls it again with the outcome of its rules. The returned
// root is stored into p by the caller; p.Qf is set here when ord is
// given.
func Assemble(cat *table.Catalog, p *Plan, pushdown map[string]expr.Expr,
	prune map[string][]int, ord *Order, residual []expr.Expr) (Node, error) {
	scan := func(name string) (Node, error) {
		t, ok := cat.Table(name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", name)
		}
		return NewScanCols(t, pushdown[name], prune[name]), nil
	}

	var root Node
	var qf Node
	if ord == nil {
		// FROM resolution order; attach every join predicate whose both
		// sides are now in scope. Actual data streams on the probe
		// (right) side, so rows leave the joins in its order, as in the
		// ordered tree, whatever the FROM order.
		inScope := make(map[string]bool, len(p.FromTables))
		streams := false
		used := make([]bool, len(p.BaseJoins))
		for _, tn := range p.FromTables {
			s, err := scan(tn)
			if err != nil {
				return nil, err
			}
			t, _ := cat.Table(tn)
			ad := t.Class == table.ActualData
			if root == nil {
				root, streams = s, ad
				inScope[tn] = true
				continue
			}
			inScope[tn] = true
			var preds []table.JoinPred
			for ji, j := range p.BaseJoins {
				if used[ji] {
					continue
				}
				lt, _, err := table.SplitQualified(j.Left)
				if err != nil {
					return nil, err
				}
				rt, _, err := table.SplitQualified(j.Right)
				if err != nil {
					return nil, err
				}
				if inScope[lt] && inScope[rt] {
					used[ji] = true
					preds = append(preds, j)
				}
			}
			if streams && !ad {
				root = NewJoin(s, root, preds)
			} else {
				root, streams = NewJoin(root, s, preds), streams || ad
			}
		}
	} else {
		graph := p.Graph
		for stepIdx, st := range ord.Steps {
			v := st.Verts[0]
			s, err := scan(graph.Verts[v].Table)
			if err != nil {
				return nil, err
			}
			if root == nil {
				root = s
			} else {
				preds := make([]table.JoinPred, 0, len(st.Edges))
				for _, e := range st.Edges {
					preds = append(preds, e.Pred)
				}
				root = NewJoin(root, s, preds)
			}
			if stepIdx == ord.RedSteps-1 {
				// Metadata-only residual predicates evaluate inside Qf
				// to maximize chunk filtering.
				rest := residual[:0:0]
				for _, r := range residual {
					if onlyMetadata(cat, r) {
						root = NewSelect(root, r)
					} else {
						rest = append(rest, r)
					}
				}
				residual = rest
				qf = root
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("plan: empty FROM")
	}
	if pred := expr.Conjoin(residual); pred != nil {
		root = NewSelect(root, pred)
	}
	if ord != nil {
		p.Qf = qf
	}
	return Finish(root, p.Spec)
}

// Finish places the SELECT-list evaluation (aggregation or projection),
// ordering and limit on top of a join tree.
func Finish(root Node, q *Query) (Node, error) {
	root, err := applySelect(root, q)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		root, err = NewSort(root, q.OrderBy)
		if err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 {
		root = &Limit{In: root, N: q.Limit}
	}
	return root, nil
}

// applySelect adds aggregation or projection on top of the join tree.
func applySelect(root Node, q *Query) (Node, error) {
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	hasAgg := false
	for _, it := range q.Select {
		if it.Agg != AggNone {
			hasAgg = true
		}
	}
	if !hasAgg && len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("plan: GROUP BY without aggregates")
	}
	if !hasAgg {
		cols := make([]OutputCol, len(q.Select))
		for i, it := range q.Select {
			cols[i] = OutputCol{Name: itemName(it), Expr: it.Expr}
		}
		return NewProject(root, cols)
	}
	var aggs []AggSpec
	for _, it := range q.Select {
		if it.Agg == AggNone {
			cr, ok := it.Expr.(*expr.ColRef)
			if !ok {
				return nil, fmt.Errorf("plan: non-aggregated select item %q must be a grouping column", itemName(it))
			}
			found := false
			for _, g := range q.GroupBy {
				if g == cr.Name {
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: column %s not in GROUP BY", cr.Name)
			}
			continue
		}
		aggs = append(aggs, AggSpec{Func: it.Agg, Arg: it.Expr, Name: itemName(it)})
	}
	agg, err := NewAggregate(root, q.GroupBy, aggs)
	if err != nil {
		return nil, err
	}
	// Project into the user's select order and names.
	cols := make([]OutputCol, len(q.Select))
	for i, it := range q.Select {
		cols[i] = OutputCol{Name: itemName(it), Expr: expr.Col(itemName(it))}
		if it.Agg == AggNone {
			cols[i].Expr = expr.Col(it.Expr.(*expr.ColRef).Name)
			cols[i].Name = itemName(it)
		}
	}
	return NewProject(agg, cols)
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != AggNone {
		arg := "*"
		if it.Expr != nil {
			arg = it.Expr.String()
		}
		return fmt.Sprintf("%s(%s)", it.Agg, arg)
	}
	return it.Expr.String()
}

// resolveFrom expands the FROM clause into base tables and join
// predicates.
func resolveFrom(cat *table.Catalog, from string) ([]*table.Table, []table.JoinPred, error) {
	if t, ok := cat.Table(from); ok {
		return []*table.Table{t}, nil, nil
	}
	v, ok := cat.View(from)
	if !ok {
		return nil, nil, fmt.Errorf("plan: unknown table or view %q", from)
	}
	tabs := make([]*table.Table, 0, len(v.Tables))
	for _, tn := range v.Tables {
		t, ok := cat.Table(tn)
		if !ok {
			return nil, nil, fmt.Errorf("plan: view %q references missing table %q", from, tn)
		}
		tabs = append(tabs, t)
	}
	return tabs, append([]table.JoinPred{}, v.Joins...), nil
}

// qualifyExpr rewrites unqualified column references to qualified form,
// resolving each against the FROM tables.
func qualifyExpr(tabs []*table.Table, e expr.Expr) error {
	var firstErr error
	e.Walk(func(x expr.Expr) {
		if firstErr != nil {
			return
		}
		if c, ok := x.(*expr.ColRef); ok {
			qn, err := qualifyName(tabs, c.Name)
			if err != nil {
				firstErr = err
				return
			}
			c.Name = qn
		}
	})
	return firstErr
}

// qualifyName resolves a possibly unqualified column name against the
// FROM tables.
func qualifyName(tabs []*table.Table, name string) (string, error) {
	if strings.Contains(name, ".") {
		tn, cn, err := table.SplitQualified(name)
		if err != nil {
			return "", err
		}
		for _, t := range tabs {
			if t.Name == tn {
				if t.Schema.IndexOf(cn) < 0 {
					return "", fmt.Errorf("plan: table %s has no column %q", tn, cn)
				}
				return name, nil
			}
		}
		return "", fmt.Errorf("plan: table %q not in FROM", tn)
	}
	var found string
	for _, t := range tabs {
		if t.Schema.IndexOf(name) >= 0 {
			if found != "" {
				return "", fmt.Errorf("plan: column %q is ambiguous (%s and %s)", name, found, t.Name)
			}
			found = t.Name + "." + name
		}
	}
	if found == "" {
		return "", fmt.Errorf("plan: unknown column %q", name)
	}
	return found, nil
}

// onlyMetadata reports whether every table referenced by e is a
// metadata table.
func onlyMetadata(cat *table.Catalog, e expr.Expr) bool {
	for _, tn := range expr.Tables(e) {
		t, ok := cat.Table(tn)
		if !ok || !t.Class.IsMetadata() {
			return false
		}
	}
	return true
}
