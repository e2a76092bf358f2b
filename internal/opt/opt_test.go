package opt_test

import (
	"strings"
	"testing"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/opt"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
)

func ts(s string) int64 {
	t, err := time.Parse("2006-01-02T15:04:05.000", s)
	if err != nil {
		panic(err)
	}
	return t.UnixNano()
}

// query1 is the paper's Query 1 (Figure 2): short-term average.
func query1() *plan.Query {
	return &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggAvg, Expr: expr.Col("D.sample_value"), Alias: "avg_val"}},
		From:   seismic.ViewData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("F.channel"), expr.Str("BHE")),
			expr.NewCmp(expr.GT, expr.Col("D.sample_time"), expr.Time(ts("2010-01-12T22:15:00.000"))),
			expr.NewCmp(expr.LT, expr.Col("D.sample_time"), expr.Time(ts("2010-01-12T22:15:02.000"))),
		}),
	}
}

// query2 is the paper's Query 2 (Figure 3): DMd-filtered retrieval.
func query2() *plan.Query {
	return &plan.Query{
		Select: []plan.SelectItem{
			{Expr: expr.Col("D.sample_time")},
			{Expr: expr.Col("D.sample_value")},
		},
		From: seismic.ViewWindowData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("FIAM")),
			expr.NewCmp(expr.EQ, expr.Col("F.channel"), expr.Str("HHZ")),
			expr.NewCmp(expr.GE, expr.Col("H.window_start_ts"), expr.Time(ts("2010-04-20T23:00:00.000"))),
			expr.NewCmp(expr.LT, expr.Col("H.window_start_ts"), expr.Time(ts("2010-04-21T02:00:00.000"))),
			expr.NewCmp(expr.GT, expr.Col("H.window_max_val"), expr.Float(10000)),
			expr.NewCmp(expr.GT, expr.Col("H.window_std_dev"), expr.Float(10)),
		}),
	}
}

// queryT5 is the hot_scan benchmark's join_t5 shape: a windowdataview
// aggregate bounded both on H and on D.
func queryT5() *plan.Query {
	from, to := expr.Time(ts("2010-01-03T00:00:00.000")), expr.Time(ts("2010-01-07T00:00:00.000"))
	return &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggAvg, Expr: expr.Col("D.sample_value")}},
		From:   seismic.ViewWindowData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("ISK")),
			expr.NewCmp(expr.GE, expr.Col("H.window_start_ts"), from),
			expr.NewCmp(expr.LT, expr.Col("H.window_start_ts"), to),
			expr.NewCmp(expr.GE, expr.Col("D.sample_time"), from),
			expr.NewCmp(expr.LT, expr.Col("D.sample_time"), to),
		}),
	}
}

func compile(t *testing.T, q *plan.Query, opts opt.Options) *plan.Plan {
	t.Helper()
	cat := seismic.NewCatalog()
	p, err := plan.Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	p, err = opt.Optimize(&opt.Context{Catalog: cat}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scanTables collects the leaf tables of a subtree in order.
func scanTables(n plan.Node) []string {
	var out []string
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out = append(out, s.Table)
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(n)
	return out
}

func scanOf(root plan.Node, tab string) *plan.Scan {
	var out *plan.Scan
	var rec func(plan.Node)
	rec = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && s.Table == tab {
			out = s
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(root)
	return out
}

func contains(n, target plan.Node) bool {
	if n == target {
		return true
	}
	for _, c := range n.Children() {
		if contains(c, target) {
			return true
		}
	}
	return false
}

func TestOptimizeQuery1(t *testing.T) {
	p := compile(t, query1(), opt.Default())
	if !p.TwoStage {
		t.Fatal("query 1 must be two-stage")
	}
	if p.Type() != 4 {
		t.Fatalf("query 1 type = T%d, want T4", p.Type())
	}
	if p.Qf == nil {
		t.Fatal("no Qf branch")
	}
	cat := seismic.NewCatalog()
	for _, tn := range scanTables(p.Qf) {
		tab, _ := cat.Table(tn)
		if !tab.Class.IsMetadata() {
			t.Fatalf("actual-data table %s inside Qf", tn)
		}
	}
	qfTabs := strings.Join(scanTables(p.Qf), ",")
	if !strings.Contains(qfTabs, "F") || !strings.Contains(qfTabs, "S") {
		t.Fatalf("Qf tables = %s", qfTabs)
	}
	if all := scanTables(p.Root); len(all) != 3 {
		t.Fatalf("plan tables = %v", all)
	}
	if !contains(p.Root, p.Qf) {
		t.Fatal("Qf not part of the plan")
	}
	if err := plan.Validate(p.Graph, p.Order); err != nil {
		t.Fatal(err)
	}
	if d := scanOf(p.Root, "D"); d == nil || d.Filter == nil {
		t.Fatal("selection on D not pushed down")
	}
	if got := plan.RenderAnnotated(p.Root, p.Qf, nil); !strings.Contains(got, "[Qf]") {
		t.Fatalf("render lacks Qf marker:\n%s", got)
	}
	if len(p.RuleLog) == 0 {
		t.Fatal("empty rule log after optimization")
	}
}

func TestOptimizeQuery2(t *testing.T) {
	p := compile(t, query2(), opt.Default())
	if p.Type() != 5 {
		t.Fatalf("query 2 type = T%d, want T5", p.Type())
	}
	qf := scanTables(p.Qf)
	if len(qf) != 3 {
		t.Fatalf("Qf tables = %v", qf)
	}
	for _, tn := range qf {
		if tn == "D" {
			t.Fatal("D inside Qf")
		}
	}
	if err := plan.Validate(p.Graph, p.Order); err != nil {
		t.Fatal(err)
	}
}

// Golden snapshots: the optimized tree of Query 1 under the full
// pipeline and with each rule individually disabled. The snapshots pin
// the shape every rule contributes, so an accidental regression in one
// rule changes exactly its snapshot.
func TestGoldenPlansPerRule(t *testing.T) {
	const band = "band(S.start_time-1h < H.window_start_ts < S.end_time)"
	cases := []struct {
		name    string
		query   *plan.Query // nil: query1
		opts    opt.Options
		want    []string // substrings that must appear in the rendering or the rule log
		wantNot []string // substrings that must not
	}{
		{
			name: "all-rules",
			opts: opt.Default(),
			want: []string{
				"[Qf] join(",                        // Qf marked on the metadata join
				"scan(F cols=3/9",                   // prunecols narrowed F (station, channel, file_id)
				"scan(S cols=4/6",                   // prunecols narrowed S
				"S.end_time > '2010-01-12T22:15:00", // rangeinfer derived the segment bound
				"scan(D cols=4/5",                   // prunecols dropped D.window_ts
				"S.segment_id=D.segment_id out=1/7", // …and the data join emits only D.sample_value
				"join(F.file_id=S.file_id out=3/7",  // Qf keeps the chunk keys and the upstream join key
			},
		},
		{
			name:    "no-joinorder",
			opts:    opt.Disable(opt.RuleJoinOrder),
			want:    []string{"scan(S cols=4/6"},
			wantNot: []string{"[Qf]"},
		},
		{
			name: "no-pushdown",
			opts: opt.Disable(opt.RulePushdown),
			// The original conjuncts stay residual, but rangeinfer is an
			// independent toggle: its (new, inferred) predicates still
			// land on the S scan.
			want:    []string{"select(", "scan(S cols=4/6 | (S.end_time >"},
			wantNot: []string{"scan(F cols=3/9 | ", "scan(D cols=4/5 | "},
		},
		{
			name:    "no-rangeinfer",
			opts:    opt.Disable(opt.RuleRangeInfer),
			want:    []string{"[Qf]"},
			wantNot: []string{"S.end_time >"},
		},
		{
			name:    "no-prunecols",
			opts:    opt.Disable(opt.RulePruneCols),
			want:    []string{"[Qf]", "S.end_time >"},
			wantNot: []string{"cols=", "out="},
		},
		{
			name: "all-disabled",
			opts: opt.Disable("all"),
			want: []string{"select(", "join("},
			wantNot: []string{
				"[Qf]", "cols=", "out=", "S.end_time >",
			},
		},
		{
			// windowdataview: D joins S on the segment key and D.window_ts
			// equals H.window_start_ts, so the Qf join where S meets H
			// carries the band. It reads S.start_time and S.end_time, which
			// the S scan keeps and the band join does not emit. Query 2
			// filters only H, so H joins before S: S is the probe side.
			name:  "windowdataview/all-rules",
			query: query2(),
			opts:  opt.Default(),
			want: []string{
				"[Qf] join(F.file_id=S.file_id " + band + " out=4/6)",
				"[Qf] scan(S cols=4/6)",
				"rangeinfer: inferred 0 metadata predicate(s), " + band,
			},
		},
		{
			// With a D.sample_time range S is filtered too and joins first:
			// H is the probe side.
			name:  "windowdataview/sample-range",
			query: queryT5(),
			opts:  opt.Default(),
			want: []string{
				"[Qf] join(F.station=H.window_station,F.channel=H.window_channel " + band + " out=4/10)",
				"rangeinfer: inferred 2 metadata predicate(s), " + band,
			},
		},
		{
			name:    "windowdataview/no-rangeinfer",
			query:   query2(),
			opts:    opt.Disable(opt.RuleRangeInfer),
			want:    []string{"[Qf] join(F.station=H.window_station"},
			wantNot: []string{"band(", "S.start_time", "S.end_time"},
		},
		{
			name:    "windowdataview/all-disabled",
			query:   query2(),
			opts:    opt.Disable("all"),
			want:    []string{"join(", "H.window_start_ts"},
			wantNot: []string{"band(", "[Qf]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.query
			if q == nil {
				q = query1()
			}
			p := compile(t, q, tc.opts)
			got := plan.RenderAnnotated(p.Root, p.Qf, nil) + strings.Join(p.RuleLog, "\n")
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("rendering lacks %q:\n%s", w, got)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(got, w) {
					t.Errorf("rendering unexpectedly contains %q:\n%s", w, got)
				}
			}
		})
	}
}

func TestRuleLogReflectsDisabledRules(t *testing.T) {
	p := compile(t, query1(), opt.Disable(opt.RuleRangeInfer, opt.RulePruneCols))
	log := strings.Join(p.RuleLog, "\n")
	if strings.Contains(log, opt.RuleRangeInfer) || strings.Contains(log, opt.RulePruneCols) {
		t.Fatalf("disabled rules present in log:\n%s", log)
	}
	for _, want := range []string{opt.RuleConstFold, opt.RulePushdown, opt.RuleJoinOrder} {
		if !strings.Contains(log, want) {
			t.Fatalf("rule %s missing from log:\n%s", want, log)
		}
	}
}

func TestRangeInferenceDerivesSegmentPredicates(t *testing.T) {
	p := compile(t, query1(), opt.Default())
	s := scanOf(p.Root, "S")
	if s == nil || s.Filter == nil {
		t.Fatal("no inferred predicate on S")
	}
	repr := s.Filter.String()
	if !strings.Contains(repr, "S.end_time >") || !strings.Contains(repr, "S.start_time <=") {
		t.Fatalf("inferred = %s", repr)
	}
	for _, v := range p.Graph.Verts {
		if v.Table == "S" && !v.Filtered {
			t.Fatal("S not marked filtered after inference")
		}
	}
}

func TestEqualityInferenceDerivesBothBounds(t *testing.T) {
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.ViewData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("D.sample_time"), expr.Time(12345)),
		}),
	}
	p := compile(t, q, opt.Default())
	s := scanOf(p.Root, "S")
	if s == nil || s.Filter == nil {
		t.Fatal("no inferred predicate on S")
	}
	repr := s.Filter.String()
	if !strings.Contains(repr, "S.end_time >") || !strings.Contains(repr, "S.start_time <=") {
		t.Fatalf("point lookup should bound both sides, got %s", repr)
	}
}

// Parameterized predicates infer parameterized metadata bounds: the
// inferred conjunct references the same ordinal.
func TestRangeInferenceThroughParameters(t *testing.T) {
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.ViewData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.NewParam(0)),
			expr.NewCmp(expr.GE, expr.Col("D.sample_time"), expr.NewParam(1)),
		}),
	}
	p := compile(t, q, opt.Default())
	s := scanOf(p.Root, "S")
	if s == nil || s.Filter == nil {
		t.Fatal("no inferred predicate on S")
	}
	if got := s.Filter.String(); !strings.Contains(got, "S.end_time > ?2") {
		t.Fatalf("inferred = %s", got)
	}
	if p.NumParams != 2 {
		t.Fatalf("NumParams = %d", p.NumParams)
	}
}

func TestInferenceSkippedWhenTablesAbsent(t *testing.T) {
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableD,
		Where:  expr.NewCmp(expr.GT, expr.Col("sample_time"), expr.Time(5)),
	}
	p := compile(t, q, opt.Default())
	for _, tab := range scanTables(p.Root) {
		if tab == "S" {
			t.Fatal("inference dragged S into a D-only query")
		}
	}
}

func TestConstFoldSimplifiesConjuncts(t *testing.T) {
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   "F",
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.GT, expr.Int(2), expr.Int(1)), // folds to TRUE and disappears
			expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
			expr.NewCmp(expr.GT, expr.Col("file_id"), expr.NewArith(expr.Add, expr.Int(1), expr.Int(2))),
		}),
	}
	p := compile(t, q, opt.Default())
	got := plan.RenderAnnotated(p.Root, p.Qf, nil)
	if strings.Contains(got, "2 > 1") {
		t.Fatalf("tautology survived:\n%s", got)
	}
	if !strings.Contains(got, "F.file_id > 3") {
		t.Fatalf("arithmetic not folded:\n%s", got)
	}
}

func TestIndexKeyRecognition(t *testing.T) {
	cat := seismic.NewCatalog()
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   "F",
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("channel"), expr.Str("HHZ")),
			expr.NewCmp(expr.EQ, expr.Col("uri"), expr.Str("x")),
		}),
	}
	p, err := plan.Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &opt.Context{
		Catalog:     cat,
		MetaIndexes: map[string][][]string{"F": {{"station", "channel"}}},
	}
	p, err = opt.Optimize(ctx, p, opt.Default())
	if err != nil {
		t.Fatal(err)
	}
	s := scanOf(p.Root, "F")
	if s == nil || s.Index == nil {
		t.Fatal("index key not recognized")
	}
	if len(s.Index.Key) != 2 || s.Index.Residual == nil {
		t.Fatalf("hint = %+v", s.Index)
	}
	// The filter survives as the fallback access path.
	if s.Filter == nil {
		t.Fatal("filter dropped alongside the hint")
	}
	// Partial key: no recognition.
	q2 := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   "F",
		Where:  expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
	}
	p2, err := plan.Build(cat, q2)
	if err != nil {
		t.Fatal(err)
	}
	if p2, err = opt.Optimize(ctx, p2, opt.Default()); err != nil {
		t.Fatal(err)
	}
	if s2 := scanOf(p2.Root, "F"); s2 == nil || s2.Index != nil {
		t.Fatal("partial key must not be recognized")
	}
}

func TestPruneKeepsChunkKeyColumns(t *testing.T) {
	// Query 1 references no S columns directly, yet the Qf chunk
	// selection needs S.file_id: pruning must keep it.
	p := compile(t, query1(), opt.Default())
	s := scanOf(p.Root, "S")
	if s == nil {
		t.Fatal("no S scan")
	}
	found := false
	for _, n := range s.Names() {
		if n == "S.file_id" {
			found = true
		}
	}
	if !found {
		t.Fatalf("S scan lost the chunk key: %v", s.Names())
	}
}

// TestPruneNarrowsJoinOutputs pins what each join keeps: the columns its
// ancestors read, plus — at the Qf root — the chunk keys stage one
// selects chunks by and the keys of the join above; a parent that reads
// nothing (COUNT(*)) still gets one probe-side column, for the rows.
func TestPruneNarrowsJoinOutputs(t *testing.T) {
	joinNames := func(q *plan.Query) (data, qf []string) {
		p := compile(t, q, opt.Default())
		var rec func(n plan.Node)
		rec = func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok && data == nil {
				data = j.Names()
			}
			for _, c := range n.Children() {
				rec(c)
			}
		}
		rec(p.Root)
		return data, p.Qf.Names()
	}
	data, qf := joinNames(query1())
	if got := strings.Join(data, ","); got != "D.sample_value" {
		t.Errorf("AVG(D.sample_value): data join emits %s", got)
	}
	if got := strings.Join(qf, ","); got != "F.file_id,S.file_id,S.segment_id" {
		t.Errorf("AVG(D.sample_value): Qf emits %s", got)
	}
	count := query1()
	count.Select = []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}}
	if data, _ = joinNames(count); len(data) != 1 || !strings.HasPrefix(data[0], "D.") {
		t.Errorf("COUNT(*): data join emits %v, want one probe-side column", data)
	}
	grouped := query1()
	grouped.Select = append(grouped.Select, plan.SelectItem{Expr: expr.Col("F.station")})
	grouped.GroupBy = []string{"F.station"}
	data, qf = joinNames(grouped)
	if got := strings.Join(data, ","); got != "F.station,D.sample_value" {
		t.Errorf("GROUP BY F.station: data join emits %s", got)
	}
	if got := strings.Join(qf, ","); got != "F.file_id,F.station,S.file_id,S.segment_id" {
		t.Errorf("GROUP BY F.station: Qf emits %s", got)
	}
	// The rule log names the joins it narrowed.
	if log := strings.Join(compile(t, query1(), opt.Default()).RuleLog, "\n"); !strings.Contains(log, "join 7→3, join 7→1") {
		t.Errorf("rule log lacks the join note:\n%s", log)
	}
}

func TestOptionsParsing(t *testing.T) {
	o := opt.ParseDisable("joinorder, PRUNECOLS")
	if !o.Disabled(opt.RuleJoinOrder) || !o.Disabled(opt.RulePruneCols) {
		t.Fatal("csv parsing")
	}
	if o.Disabled(opt.RulePushdown) {
		t.Fatal("pushdown should stay enabled")
	}
	all := opt.ParseDisable("all")
	for _, r := range opt.Rules() {
		if !all.Disabled(r) {
			t.Fatalf("all did not disable %s", r)
		}
	}
	if opt.ParseDisable("").Disabled(opt.RulePushdown) {
		t.Fatal("empty disables nothing")
	}
}

// The soundness grid of the old plan-package inference test, against
// the rule's current home.
func TestInferenceSoundness(t *testing.T) {
	cat := seismic.NewCatalog()
	for _, tc := range []struct {
		op   expr.CmpOp
		want string
	}{
		{expr.GT, "S.end_time >"},
		{expr.GE, "S.end_time >"},
		{expr.LT, "S.start_time <="},
		{expr.LE, "S.start_time <="},
	} {
		q := &plan.Query{
			Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
			From:   seismic.ViewData,
			Where:  expr.NewCmp(tc.op, expr.Col("D.sample_time"), expr.Time(100)),
		}
		p, err := plan.Build(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		if p, err = opt.Optimize(&opt.Context{Catalog: cat}, p, opt.Default()); err != nil {
			t.Fatal(err)
		}
		s := scanOf(p.Root, "S")
		if s == nil || s.Filter == nil {
			t.Fatalf("%v inferred nothing", tc.op)
		}
		if got := s.Filter.String(); !strings.Contains(got, tc.want) {
			t.Fatalf("%v inferred %s, want %s", tc.op, got, tc.want)
		}
	}
	// A predicate on a non-mapped column infers nothing.
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.ViewData,
		Where:  expr.NewCmp(expr.GT, expr.Col("D.sample_value"), expr.Float(1)),
	}
	p, err := plan.Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = opt.Optimize(&opt.Context{Catalog: cat}, p, opt.Default()); err != nil {
		t.Fatal(err)
	}
	if s := scanOf(p.Root, "S"); s != nil && s.Filter != nil {
		t.Fatalf("value predicate inferred %s", s.Filter)
	}
}

// topkQuery is query2 with an ORDER BY + LIMIT tail: the shape the
// topk rule folds into a bounded-heap operator.
func topkQuery(limit int) *plan.Query {
	q := query2()
	q.OrderBy = []plan.OrderKey{{Col: "D.sample_value", Desc: true}, {Col: "D.sample_time"}}
	q.Limit = limit
	return q
}

func TestTopKFoldsSortLimit(t *testing.T) {
	p := compile(t, topkQuery(10), opt.Options{})
	tk, ok := p.Root.(*plan.TopK)
	if !ok {
		t.Fatalf("root = %T (%s), want *plan.TopK", p.Root, p.Root.String())
	}
	if tk.N != 10 || len(tk.Keys) != 2 || !tk.Keys[0].Desc || tk.Keys[1].Desc {
		t.Fatalf("topk node keeps keys/limit wrong: %+v", tk)
	}
	if _, under := tk.In.(*plan.Sort); under {
		t.Fatal("sort survived under the topk node")
	}
	log := strings.Join(p.RuleLog, "\n")
	if !strings.Contains(log, opt.RuleTopK) {
		t.Fatalf("topk rule missing from log:\n%s", log)
	}
}

func TestTopKDisabledKeepsSortLimit(t *testing.T) {
	p := compile(t, topkQuery(10), opt.Disable(opt.RuleTopK))
	lim, ok := p.Root.(*plan.Limit)
	if !ok {
		t.Fatalf("root = %T, want *plan.Limit with topk disabled", p.Root)
	}
	if _, ok := lim.In.(*plan.Sort); !ok {
		t.Fatalf("limit input = %T, want *plan.Sort", lim.In)
	}
	if strings.Contains(strings.Join(p.RuleLog, "\n"), opt.RuleTopK) {
		t.Fatal("disabled topk rule present in rule log")
	}
}

func TestTopKSkipsHugeLimits(t *testing.T) {
	// Beyond the eligibility bound the bounded heap would cost more
	// than the sort it replaces; the pair must survive untouched.
	p := compile(t, topkQuery(1<<20), opt.Options{})
	if _, ok := p.Root.(*plan.Limit); !ok {
		t.Fatalf("root = %T, want *plan.Limit for a %d-row limit", p.Root, 1<<20)
	}
}
