// Package opt is the rule-based logical optimizer: an ordered pipeline
// of rewrite rules over the plan.Node IR produced by plan.Build. Each
// rule is individually toggleable (Options) and records what it did in
// the plan's rule log, so EXPLAIN can show exactly which rewrites fired
// and the ablation experiments can measure each rule's effect.
//
// The pipeline, in order:
//
//	constfold   fold constant sub-expressions in WHERE conjuncts
//	pushdown    move single-table conjuncts into their scans
//	rangeinfer  infer metadata range predicates from actual-data
//	            predicates through the catalog's range mappings
//	joinorder   the paper's R1–R4 colored-graph join ordering, plus
//	            the Qf/Qs split (marking the metadata branch stage
//	            one evaluates to select chunks)
//	prunecols   narrow every scan to the columns the query references
//	            (chunk scans then only carry referenced columns)
//	indexkey    recognize filters that pin all columns of a hash
//	            index and annotate the scan with the key
//	topk        fold ORDER BY + LIMIT into a bounded top-k selection
//
// Optimize never changes what a query returns — only how it executes;
// the engine's differential tests assert this per rule across every
// loading approach. A fully optimized plan is immutable and safe to
// share: the compiled-plan cache hands one *plan.Plan to any number of
// concurrent executions.
package opt

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"sommelier/internal/expr"
	"sommelier/internal/plan"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Rule names, in pipeline order.
const (
	RuleConstFold  = "constfold"
	RulePushdown   = "pushdown"
	RuleRangeInfer = "rangeinfer"
	RuleJoinOrder  = "joinorder"
	RulePruneCols  = "prunecols"
	RuleIndexKey   = "indexkey"
	RuleTopK       = "topk"
)

// Rules lists every rule in pipeline order.
func Rules() []string {
	return []string{RuleConstFold, RulePushdown, RuleRangeInfer, RuleJoinOrder, RulePruneCols, RuleIndexKey, RuleTopK}
}

// EnvDisable is the environment variable listing rules to disable
// (comma-separated rule names, or "all").
const EnvDisable = "SOMMELIER_OPT_DISABLE"

// Options selects which rules run.
type Options struct {
	disabled map[string]bool
}

// Default enables every rule.
func Default() Options { return Options{} }

// Disable returns options with the named rules off; the name "all"
// disables every rule.
func Disable(names ...string) Options {
	o := Options{disabled: make(map[string]bool, len(names))}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if strings.EqualFold(n, "all") {
			for _, r := range Rules() {
				o.disabled[r] = true
			}
			continue
		}
		o.disabled[strings.ToLower(n)] = true
	}
	return o
}

// ParseDisable parses a comma-separated disable list ("", "all", or
// rule names) into Options.
func ParseDisable(s string) Options {
	if strings.TrimSpace(s) == "" {
		return Default()
	}
	return Disable(strings.Split(s, ",")...)
}

// FromEnv reads the SOMMELIER_OPT_DISABLE environment variable.
func FromEnv() Options { return ParseDisable(os.Getenv(EnvDisable)) }

// Disabled reports whether the named rule is off.
func (o Options) Disabled(name string) bool { return o.disabled[name] }

// Context carries what the rules need to know about the execution
// environment beyond the catalog.
type Context struct {
	Catalog *table.Catalog
	// MetaIndexes describes the hash indexes available per metadata
	// table: each entry is one index's key columns (unqualified, in key
	// order). Nil when the environment has no index access paths.
	MetaIndexes map[string][][]string
}

// Optimize runs the rule pipeline over a freshly Built plan, rewriting
// its operator tree in place and recording the applied rules in
// p.RuleLog. The same plan must not be executed concurrently with its
// optimization; afterwards it is immutable and freely shareable.
func Optimize(ctx *Context, p *plan.Plan, opts Options) (*plan.Plan, error) {
	if ctx == nil || ctx.Catalog == nil {
		return nil, fmt.Errorf("opt: nil context or catalog")
	}
	cat := ctx.Catalog
	var log []string
	residual := append([]expr.Expr(nil), p.Conjuncts...)

	// constfold: fold constant sub-expressions conjunct by conjunct;
	// conjuncts that fold to TRUE disappear entirely.
	if !opts.Disabled(RuleConstFold) {
		folded, kept := 0, residual[:0:0]
		for _, c := range residual {
			fc, changed := fold(c)
			if changed {
				folded++
			}
			if k, ok := fc.(*expr.Const); ok && k.K == storage.KindBool && k.B {
				continue
			}
			kept = append(kept, fc)
		}
		residual = kept
		log = append(log, fmt.Sprintf("%s: folded %d conjunct(s)", RuleConstFold, folded))
	}

	// pushdown: single-table conjuncts move into their scans.
	pushdown := make(map[string][]expr.Expr)
	if !opts.Disabled(RulePushdown) {
		moved, kept := 0, residual[:0:0]
		for _, c := range residual {
			if tabs := expr.Tables(c); len(tabs) == 1 {
				pushdown[tabs[0]] = append(pushdown[tabs[0]], c)
				moved++
			} else {
				kept = append(kept, c)
			}
		}
		residual = kept
		log = append(log, fmt.Sprintf("%s: pushed %d predicate(s) into scans", RulePushdown, moved))
	}

	// rangeinfer: predicate inference through range mappings — a range
	// predicate on an actual-data column whose per-chunk values are
	// bounded by metadata columns implies a metadata predicate, letting
	// the Qf branch prune chunks. Candidate conjuncts come from the
	// pushdown map and from the residual list, so the rule works with
	// pushdown disabled too (the rules are independent toggles); the
	// inferred predicates are new, and land directly on their metadata
	// scan. A mapping's truncated column, equated with another table's
	// column, also yields a band for the join of that table with the
	// bounding metadata (inferBand); it is attached once the tree is
	// assembled.
	var band *plan.Band
	rangeLog := -1
	if !opts.Disabled(RuleRangeInfer) {
		inferred := 0
		inTabs := func(name string) bool {
			for _, tn := range p.FromTables {
				if tn == name {
					return true
				}
			}
			return false
		}
		candidates := func(adTab string) []expr.Expr {
			out := append([]expr.Expr(nil), pushdown[adTab]...)
			for _, c := range residual {
				if tabs := expr.Tables(c); len(tabs) == 1 && tabs[0] == adTab {
					out = append(out, c)
				}
			}
			return out
		}
		for _, m := range cat.RangeMappings() {
			adTab, _, err := table.SplitQualified(m.ADColumn)
			if err != nil {
				return nil, err
			}
			loTab, _, err := table.SplitQualified(m.MdLo)
			if err != nil {
				return nil, err
			}
			hiTab, _, err := table.SplitQualified(m.MdHi)
			if err != nil {
				return nil, err
			}
			if !inTabs(adTab) || !inTabs(loTab) || !inTabs(hiTab) {
				continue
			}
			for _, c := range candidates(adTab) {
				for _, inf := range inferRangePreds(m, c) {
					mdTab := expr.Tables(inf)[0]
					pushdown[mdTab] = append(pushdown[mdTab], inf)
					inferred++
				}
			}
			if b := inferBand(cat, p, m); b != nil && band == nil {
				band = b
			}
		}
		rangeLog = len(log)
		log = append(log, fmt.Sprintf("%s: inferred %d metadata predicate(s)", RuleRangeInfer, inferred))
	}

	// joinorder: the colored query graph and the R1–R4 order, which
	// also determines the Qf/Qs split point.
	var ord *plan.Order
	if !opts.Disabled(RuleJoinOrder) {
		graph, err := buildGraph(cat, p, pushdown)
		if err != nil {
			return nil, err
		}
		o, err := plan.OrderJoins(graph)
		if err != nil {
			return nil, err
		}
		p.Graph, p.Order = graph, o
		ord = o
		var reds []string
		for _, st := range o.Steps[:o.RedSteps] {
			reds = append(reds, graph.Verts[st.Verts[0]].Table)
		}
		if o.RedSteps > 0 {
			log = append(log, fmt.Sprintf("%s: %d step(s), Qf over [%s]", RuleJoinOrder, len(o.Steps), strings.Join(reds, " ")))
		} else {
			log = append(log, fmt.Sprintf("%s: %d step(s), no metadata branch", RuleJoinOrder, len(o.Steps)))
		}
	} else {
		p.Graph, p.Order = nil, nil
	}

	// prunecols: narrow every scan to the referenced columns.
	var prune map[string][]int
	var pruneNotes []string
	if !opts.Disabled(RulePruneCols) {
		prune = pruneColumns(cat, p, pushdown, residual, band)
		var notes []string
		for _, tn := range p.FromTables {
			if idxs, ok := prune[tn]; ok {
				t, _ := cat.Table(tn)
				notes = append(notes, fmt.Sprintf("%s %d→%d", tn, t.Schema.Width(), len(idxs)))
			}
		}
		pruneNotes = notes
	}

	pd := make(map[string]expr.Expr, len(pushdown))
	for tn, cs := range pushdown {
		pd[tn] = expr.Conjoin(cs)
	}
	p.Qf = nil
	root, err := plan.Assemble(cat, p, pd, prune, ord, residual)
	if err != nil {
		return nil, err
	}
	p.Root = root
	if band != nil && attachBand(p.Root, band) {
		log[rangeLog] += ", " + band.String()
	}

	// prunecols, continued on the assembled tree: every join emits only
	// the columns the operators above it read.
	if !opts.Disabled(RulePruneCols) {
		pruneJoinOutputs(cat, p, p.Root, nil, &pruneNotes)
		if len(pruneNotes) == 0 {
			pruneNotes = append(pruneNotes, "nothing to prune")
		}
		log = append(log, fmt.Sprintf("%s: %s", RulePruneCols, strings.Join(pruneNotes, ", ")))
	}

	// indexkey: annotate metadata scans whose filter pins all columns
	// of an available hash index.
	if !opts.Disabled(RuleIndexKey) {
		hits := annotateIndexKeys(ctx, p.Root)
		log = append(log, fmt.Sprintf("%s: %d scan(s) annotated", RuleIndexKey, hits))
	}

	// topk: fold ORDER BY + LIMIT (a Limit directly over a Sort) into a
	// bounded top-k selection, so the sort never materializes more than
	// k rows — the pushdown that keeps streamed LIMIT queries at O(k)
	// memory.
	if !opts.Disabled(RuleTopK) {
		if lim, ok := p.Root.(*plan.Limit); ok && lim.N > 0 && lim.N <= topKMaxN {
			if srt, ok := lim.In.(*plan.Sort); ok {
				p.Root = &plan.TopK{In: srt.In, Keys: srt.Keys, N: lim.N}
				log = append(log, fmt.Sprintf("%s: fused sort+limit into top-%d", RuleTopK, lim.N))
			}
		}
	}

	p.RuleLog = log
	return p, nil
}

// topKMaxN bounds the limits eligible for top-k pushdown: beyond it
// the O(k) candidate buffers stop being "bounded" in any useful sense
// and a full sort is no worse.
const topKMaxN = 1 << 16

// buildGraph constructs the colored query graph from the resolved plan
// and the pushdown outcome (filtered vertices are preferred earlier by
// the greedy order).
func buildGraph(cat *table.Catalog, p *plan.Plan, pushdown map[string][]expr.Expr) (*plan.Graph, error) {
	graph := &plan.Graph{}
	vertIdx := make(map[string]int, len(p.FromTables))
	for _, tn := range p.FromTables {
		t, ok := cat.Table(tn)
		if !ok {
			return nil, fmt.Errorf("opt: unknown table %q", tn)
		}
		vertIdx[tn] = len(graph.Verts)
		graph.Verts = append(graph.Verts, plan.Vertex{
			Table:    tn,
			Class:    t.Class,
			Filtered: len(pushdown[tn]) > 0,
		})
	}
	for _, j := range p.BaseJoins {
		lt, _, err := table.SplitQualified(j.Left)
		if err != nil {
			return nil, err
		}
		rt, _, err := table.SplitQualified(j.Right)
		if err != nil {
			return nil, err
		}
		a, aok := vertIdx[lt]
		b, bok := vertIdx[rt]
		if !aok || !bok {
			return nil, fmt.Errorf("opt: join %v references table outside FROM", j)
		}
		if a == b {
			return nil, fmt.Errorf("opt: self-join predicate %v not supported", j)
		}
		graph.Edges = append(graph.Edges, plan.GraphEdge{A: min(a, b), B: max(a, b), Pred: j})
	}
	return graph, nil
}

// pruneColumns computes, per FROM table, the schema column indexes the
// query actually references: output expressions, grouping and ordering
// keys, join predicates, pushed-down and residual filters — plus, when
// the plan touches actual data, every metadata column named like an
// actual-data table's chunk key (the stage-one chunk selection reads it
// from the Qf result). Tables where everything is referenced are absent
// from the map (no pruning).
func pruneColumns(cat *table.Catalog, p *plan.Plan, pushdown map[string][]expr.Expr, residual []expr.Expr, band *plan.Band) map[string][]int {
	needed := make(map[string]map[string]bool, len(p.FromTables))
	for _, tn := range p.FromTables {
		needed[tn] = make(map[string]bool)
	}
	addName := func(qn string) {
		tn, cn, err := table.SplitQualified(qn)
		if err != nil {
			return
		}
		if cols, ok := needed[tn]; ok {
			cols[cn] = true
		}
	}
	addExpr := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, c := range expr.Columns(e) {
			addName(c)
		}
	}
	for _, cs := range pushdown {
		for _, c := range cs {
			addExpr(c)
		}
	}
	for _, c := range residual {
		addExpr(c)
	}
	for _, j := range p.BaseJoins {
		addName(j.Left)
		addName(j.Right)
	}
	if band != nil {
		for _, c := range band.Cols() {
			addName(c)
		}
	}
	q := p.Spec
	for _, it := range q.Select {
		addExpr(it.Expr)
	}
	for _, g := range q.GroupBy {
		addName(g)
	}
	for _, k := range q.OrderBy {
		addName(k.Col)
	}
	// Chunk selection reads the chunk-key column of the metadata branch.
	if len(p.ADTables) > 0 {
		keys := make(map[string]bool)
		for _, tn := range p.ADTables {
			if t, ok := cat.Table(tn); ok && t.ChunkKey != "" {
				keys[t.ChunkKey] = true
			}
		}
		for _, tn := range p.FromTables {
			t, ok := cat.Table(tn)
			if !ok || !t.Class.IsMetadata() {
				continue
			}
			for k := range keys {
				if t.Schema.IndexOf(k) >= 0 {
					needed[tn][k] = true
				}
			}
		}
	}
	prune := make(map[string][]int)
	for _, tn := range p.FromTables {
		t, ok := cat.Table(tn)
		if !ok {
			continue
		}
		var kept []int
		for i, n := range t.Schema.Names() {
			if needed[tn][n] {
				kept = append(kept, i)
			}
		}
		if len(kept) == 0 {
			// A scan must emit at least one column (COUNT(*) needs the
			// cardinality); keep the narrowest-footprint first column.
			kept = []int{0}
		}
		if len(kept) == t.Schema.Width() {
			continue
		}
		sort.Ints(kept)
		prune[tn] = kept
	}
	return prune
}

// pruneJoinOutputs narrows every equi-join under n to the columns the
// operators above it read: need names them (nil: all of them), each
// operator on the way down adding what it reads itself — a join its
// keys, the Qf root the chunk-key columns stage one selects chunks by.
// A join nothing reads from (COUNT(*)) keeps its first probe-side
// column, which passes through the physical join untouched, so the row
// count survives.
func pruneJoinOutputs(cat *table.Catalog, p *plan.Plan, n plan.Node, need map[string]bool, notes *[]string) {
	var reads []string // what n itself reads from below
	if n == p.Qf {
		for _, tn := range p.ADTables {
			if t, ok := cat.Table(tn); ok && t.ChunkKey != "" {
				for _, name := range n.Names() {
					if strings.HasSuffix(name, "."+t.ChunkKey) {
						reads = append(reads, name)
					}
				}
			}
		}
	}
	switch n := n.(type) {
	case *plan.Project:
		need = map[string]bool{}
		for _, c := range n.Cols {
			reads = append(reads, expr.Columns(c.Expr)...)
		}
	case *plan.Aggregate:
		need = map[string]bool{}
		reads = append(reads, n.GroupBy...)
		for _, a := range n.Aggs {
			if a.Arg != nil {
				reads = append(reads, expr.Columns(a.Arg)...)
			}
		}
	case *plan.Select:
		reads = append(reads, expr.Columns(n.Pred)...)
	case *plan.Sort:
		for _, k := range n.Keys {
			reads = append(reads, k.Col)
		}
	}
	need = withCols(need, reads...)
	if n, ok := n.(*plan.Join); ok {
		below := need
		for _, jp := range n.Preds {
			below = withCols(below, jp.Left, jp.Right)
		}
		if n.Band != nil {
			below = withCols(below, n.Band.Cols()...)
		}
		pruneJoinOutputs(cat, p, n.L, below, notes)
		pruneJoinOutputs(cat, p, n.R, below, notes)
		// The children narrowed first: positions are over their new schemas.
		full := append(append([]string{}, n.L.Names()...), n.R.Names()...)
		var out []int
		if need != nil && len(n.Preds) > 0 {
			for i, name := range full {
				if need[name] {
					out = append(out, i)
				}
			}
			if len(out) == 0 {
				out = []int{len(n.L.Names())}
			}
			if len(out) == len(full) {
				out = nil
			}
		}
		n.SetOut(out)
		if out != nil {
			*notes = append(*notes, fmt.Sprintf("join %d→%d", len(full), len(out)))
		}
		return
	}
	for _, c := range n.Children() {
		pruneJoinOutputs(cat, p, c, need, notes)
	}
}

// withCols returns need extended by cols, leaving need itself (shared
// with sibling subtrees) untouched; a nil need — every column — stays nil.
func withCols(need map[string]bool, cols ...string) map[string]bool {
	if need == nil || len(cols) == 0 {
		return need
	}
	ext := make(map[string]bool, len(need)+len(cols))
	for c := range need {
		ext[c] = true
	}
	for _, c := range cols {
		ext[c] = true
	}
	return ext
}

// annotateIndexKeys walks the assembled tree and attaches an IndexHint
// to every metadata scan whose filter pins all columns of an available
// index with equality constants or parameters.
func annotateIndexKeys(ctx *Context, root plan.Node) int {
	if len(ctx.MetaIndexes) == 0 {
		return 0
	}
	hits := 0
	walkScans(root, func(sc *plan.Scan) {
		if sc.Filter == nil || sc.Index != nil {
			return
		}
		t, ok := ctx.Catalog.Table(sc.Table)
		if !ok || !t.Class.IsMetadata() {
			return
		}
		conjuncts := expr.Conjuncts(sc.Filter)
		for _, cols := range ctx.MetaIndexes[sc.Table] {
			if hint, ok := matchIndexKey(t, cols, conjuncts); ok {
				sc.Index = hint
				hits++
				return
			}
		}
	})
	return hits
}

// matchIndexKey extracts an index key from equality conjuncts covering
// all of cols, leaving the unused conjuncts as the residual filter.
func matchIndexKey(t *table.Table, cols []string, conjuncts []expr.Expr) (*plan.IndexHint, bool) {
	hint := &plan.IndexHint{Cols: cols}
	used := make([]bool, len(conjuncts))
	for _, col := range cols {
		colKind := t.Schema.KindOf(col)
		found := false
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			name, val, ok := eqOperand(c)
			if !ok || (name != col && name != t.Name+"."+col) {
				continue
			}
			if k, isConst := val.(*expr.Const); isConst {
				// The constant must be usable as this key part.
				switch colKind {
				case storage.KindInt64, storage.KindTime:
					if k.K != storage.KindInt64 && k.K != storage.KindTime {
						continue
					}
				case storage.KindString:
					if k.K != storage.KindString {
						continue
					}
				default:
					continue
				}
			}
			hint.Key = append(hint.Key, val)
			hint.Kinds = append(hint.Kinds, colKind)
			used[ci] = true
			found = true
			break
		}
		if !found {
			return nil, false
		}
	}
	var residual []expr.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = append(residual, c)
		}
	}
	hint.Residual = expr.Conjoin(residual)
	return hint, true
}

// walkScans visits every Scan in the subtree.
func walkScans(n plan.Node, fn func(*plan.Scan)) {
	if s, ok := n.(*plan.Scan); ok {
		fn(s)
	}
	for _, c := range n.Children() {
		walkScans(c, fn)
	}
}

// eqOperand matches `col = v` (either direction) where v is a constant
// or a parameter.
func eqOperand(e expr.Expr) (col string, val expr.Expr, ok bool) {
	cmp, isCmp := e.(*expr.Cmp)
	if !isCmp || cmp.Op != expr.EQ {
		return "", nil, false
	}
	if cr, isCol := cmp.L.(*expr.ColRef); isCol && isValue(cmp.R) {
		return cr.Name, cmp.R, true
	}
	if cr, isCol := cmp.R.(*expr.ColRef); isCol && isValue(cmp.L) {
		return cr.Name, cmp.L, true
	}
	return "", nil, false
}

// rangeOperand matches an inequality between a column and a constant or
// parameter, with the operator normalized so the column is on the left.
func rangeOperand(e expr.Expr) (col string, op expr.CmpOp, val expr.Expr, ok bool) {
	cmp, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return "", 0, nil, false
	}
	switch cmp.Op {
	case expr.LT, expr.LE, expr.GT, expr.GE:
	default:
		return "", 0, nil, false
	}
	if cr, isCol := cmp.L.(*expr.ColRef); isCol && isValue(cmp.R) {
		return cr.Name, cmp.Op, cmp.R, true
	}
	if cr, isCol := cmp.R.(*expr.ColRef); isCol && isValue(cmp.L) {
		return cr.Name, expr.FlipCmp(cmp.Op), cmp.L, true
	}
	return "", 0, nil, false
}

func isValue(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Const, *expr.Param:
		return true
	}
	return false
}

// inferBand derives the band a truncating range mapping implies. When
// the query joins the actual-data table to the mapping's bounding table
// on that table's whole primary key by the chunk and segment keys — so
// each data row meets its own segment — and equates the truncated
// column with a column T of a third table, every result row has
//
//	Lo ≤ ad < Hi  and  T = trunc(ad) ∈ (ad − width, ad]
//
// so Lo − width < T < Hi: a band on the join of the bounding table
// with T's table, which drops only pairs no data row can complete.
// Returns nil when the query lacks either join.
func inferBand(cat *table.Catalog, p *plan.Plan, m table.RangeMapping) *plan.Band {
	if m.Trunc == "" {
		return nil
	}
	adTab, _, _ := table.SplitQualified(m.ADColumn)
	mdTab, _, _ := table.SplitQualified(m.MdLo)
	hiTab, _, _ := table.SplitQualified(m.MdHi)
	ad, ok1 := cat.Table(adTab)
	md, ok2 := cat.Table(mdTab)
	if !ok1 || !ok2 || hiTab != mdTab || ad.ChunkKey == "" || ad.SegmentKey == "" {
		return nil
	}
	// The bounding-table column each data-side key is equated with.
	keyed := make(map[string]string)
	var t string
	for _, j := range p.BaseJoins {
		for _, pr := range [2][2]string{{j.Left, j.Right}, {j.Right, j.Left}} {
			at, ac, _ := table.SplitQualified(pr[0])
			bt, bc, _ := table.SplitQualified(pr[1])
			switch {
			case at == adTab && bt == mdTab:
				keyed[ac] = bc
			case pr[0] == m.Trunc && bt != adTab && bt != mdTab:
				t = pr[1]
			}
		}
	}
	segKey := map[string]bool{keyed[ad.ChunkKey]: true, keyed[ad.SegmentKey]: true}
	if t == "" || len(md.PrimaryKey) != 2 || !segKey[md.PrimaryKey[0]] || !segKey[md.PrimaryKey[1]] {
		return nil
	}
	return &plan.Band{T: t, Lo: m.MdLo, Hi: m.MdHi, Slack: m.TruncWidth}
}

// attachBand puts b on the lowest join under n with both bound columns
// on one input and the banded column on the other, reporting whether
// there was one.
func attachBand(n plan.Node, b *plan.Band) bool {
	for _, c := range n.Children() {
		if attachBand(c, b) {
			return true
		}
	}
	j, ok := n.(*plan.Join)
	if !ok || len(j.Preds) == 0 {
		return false
	}
	for _, sides := range [2][2]plan.Node{{j.L, j.R}, {j.R, j.L}} {
		bounds, times := sides[0].Names(), sides[1].Names()
		if slices.Contains(bounds, b.Lo) && slices.Contains(bounds, b.Hi) && slices.Contains(times, b.T) {
			j.Band = b
			return true
		}
	}
	return false
}

// inferRangePreds derives metadata predicates from one conjunct over
// the mapped actual-data column. A chunk's values lie within [Lo, Hi),
// so:
//
//	ad >  v  or  ad >= v   implies   Hi >  v
//	ad <  v  or  ad <= v   implies   Lo <= v
//	ad =  v                implies   both
//
// v may be a constant or a parameter; an inferred predicate over a
// parameter references the same ordinal, so it resolves against the
// same argument at execution.
func inferRangePreds(m table.RangeMapping, c expr.Expr) []expr.Expr {
	var out []expr.Expr
	addHi := func(v expr.Expr) {
		out = append(out, expr.NewCmp(expr.GT, expr.Col(m.MdHi), expr.Clone(v)))
	}
	addLo := func(v expr.Expr) {
		out = append(out, expr.NewCmp(expr.LE, expr.Col(m.MdLo), expr.Clone(v)))
	}
	if col, v, ok := eqOperand(c); ok && col == m.ADColumn {
		addHi(v)
		addLo(v)
		return out
	}
	col, op, v, ok := rangeOperand(c)
	if !ok || col != m.ADColumn {
		return nil
	}
	switch op {
	case expr.GT, expr.GE:
		addHi(v)
	case expr.LT, expr.LE:
		addLo(v)
	}
	return out
}
