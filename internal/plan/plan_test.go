package plan

import (
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/seismic"
	"sommelier/internal/table"
)

func TestMetadataOnlyQueryHasNoSecondStage(t *testing.T) {
	cat := seismic.NewCatalog()
	q := &Query{
		Select: []SelectItem{{Agg: AggCount, Alias: "n"}},
		From:   "F",
		Where:  expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
	}
	p, err := Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.TwoStage {
		t.Fatal("metadata-only query should not be two-stage")
	}
	if p.Type() != 1 {
		t.Fatalf("type = T%d, want T1", p.Type())
	}
}

func TestQueryTypeTaxonomy(t *testing.T) {
	cat := seismic.NewCatalog()
	// T2: DMd only.
	q2 := &Query{
		Select: []SelectItem{{Expr: expr.Col("window_max_val")}},
		From:   "H",
		Where:  expr.NewCmp(expr.EQ, expr.Col("window_station"), expr.Str("FIAM")),
	}
	p, err := Build(cat, q2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Type() != 2 {
		t.Fatalf("type = T%d, want T2", p.Type())
	}
	if p.TwoStage {
		t.Fatal("T2 should not touch actual data")
	}
	// T3: DMd & GMd — join H with F via a view-less query is not
	// expressible, so use windowdataview restricted to metadata
	// columns... T3 needs its own view; emulate with explicit join in
	// WHERE over a two-table FROM is unsupported, so verify via plan
	// classes directly using a handcrafted query on windowdataview
	// without D references is still T5 (D is in the view). Instead,
	// verify the classifier on a synthetic plan.
	p3 := &Plan{GMdTables: []string{"F"}, DMdTables: []string{"H"}}
	if p3.Type() != 3 {
		t.Fatalf("T3 classifier = %d", p3.Type())
	}
	p0 := &Plan{ADTables: []string{"D"}}
	if p0.Type() != 0 {
		t.Fatalf("AD-only should be outside the taxonomy, got T%d", p0.Type())
	}
}

func TestAggregateValidation(t *testing.T) {
	cat := seismic.NewCatalog()
	// Non-grouped bare column with aggregates.
	q := &Query{
		Select: []SelectItem{
			{Expr: expr.Col("station")},
			{Agg: AggAvg, Expr: expr.Col("file_id")},
		},
		From: "F",
	}
	if _, err := Build(cat, q); err == nil {
		t.Fatal("ungrouped column accepted")
	}
	// GROUP BY without aggregates.
	q = &Query{
		Select:  []SelectItem{{Expr: expr.Col("station")}},
		From:    "F",
		GroupBy: []string{"station"},
	}
	if _, err := Build(cat, q); err == nil {
		t.Fatal("GROUP BY without aggregates accepted")
	}
	// Valid grouped aggregate.
	q = &Query{
		Select: []SelectItem{
			{Expr: expr.Col("station")},
			{Agg: AggCount, Alias: "n"},
		},
		From:    "F",
		GroupBy: []string{"station"},
	}
	p, err := Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	names := p.Root.Names()
	if names[0] != "F.station" || names[1] != "n" {
		t.Fatalf("output names = %v", names)
	}
}

func TestBuildErrors(t *testing.T) {
	cat := seismic.NewCatalog()
	cases := []*Query{
		{Select: []SelectItem{{Expr: expr.Col("x")}}, From: "nosuch"},
		{Select: []SelectItem{{Expr: expr.Col("nosuchcol")}}, From: "F"},
		{Select: []SelectItem{{Expr: expr.Col("Z.station")}}, From: "F"},
		{Select: nil, From: "F"},
		{Select: []SelectItem{{Expr: expr.Col("file_id")}}, From: seismic.ViewData}, // ambiguous: F, S and D all have file_id
	}
	for i, q := range cases {
		if _, err := Build(cat, q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := seismic.NewCatalog()
	q := &Query{
		Select:  []SelectItem{{Expr: expr.Col("station")}, {Expr: expr.Col("uri")}},
		From:    "F",
		OrderBy: []OrderKey{{Col: "station", Desc: true}},
		Limit:   5,
	}
	p, err := Build(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := p.Root.(*Limit)
	if !ok {
		t.Fatalf("root = %T, want Limit", p.Root)
	}
	if _, ok := lim.In.(*Sort); !ok {
		t.Fatalf("below limit = %T, want Sort", lim.In)
	}
}

// Property: R1–R4 hold on random colored query graphs.
func TestQuickJoinOrderInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	for trial := 0; trial < 300; trial++ {
		nv := rng.Intn(7) + 1
		g := &Graph{}
		for i := 0; i < nv; i++ {
			class := table.GivenMetadata
			switch rng.Intn(3) {
			case 1:
				class = table.DerivedMetadata
			case 2:
				class = table.ActualData
			}
			g.Verts = append(g.Verts, Vertex{
				Table:    string(rune('A' + i)),
				Class:    class,
				Filtered: rng.Intn(2) == 0,
			})
		}
		ne := rng.Intn(nv * 2)
		for i := 0; i < ne; i++ {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			g.Edges = append(g.Edges, GraphEdge{A: a, B: b, Pred: table.JoinPred{
				Left: g.Verts[a].Table + ".k", Right: g.Verts[b].Table + ".k",
			}})
		}
		ord, err := OrderJoins(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(g, ord); err != nil {
			t.Fatalf("trial %d: %v\nverts=%+v edges=%+v order=%+v", trial, err, g.Verts, g.Edges, ord)
		}
		// Extra invariant: the red phase covers exactly the red
		// vertices.
		redCount := 0
		for _, v := range g.Verts {
			if v.Color() == Red {
				redCount++
			}
		}
		got := 0
		for _, st := range ord.Steps[:ord.RedSteps] {
			got += len(st.Verts)
		}
		if got != redCount {
			t.Fatalf("trial %d: red phase joined %d of %d red vertices", trial, got, redCount)
		}
	}
}

// The paper's rule-set motivation: R2 prevents access to an AD table
// without exploiting metadata. Verify cross products appear only inside
// the red phase for connected blue subgraphs.
func TestRedCrossProductBeforeBlue(t *testing.T) {
	// m5 connects to a2 only (blue); m1..m4 are a separate red
	// component — Figure 5's shape.
	g := &Graph{
		Verts: []Vertex{
			{Table: "m1", Class: table.GivenMetadata},
			{Table: "m5", Class: table.GivenMetadata},
			{Table: "a2", Class: table.ActualData},
		},
		Edges: []GraphEdge{
			{A: 1, B: 2, Pred: table.JoinPred{Left: "m5.k", Right: "a2.k"}},
		},
	}
	ord, err := OrderJoins(g)
	if err != nil {
		t.Fatal(err)
	}
	if ord.RedSteps != 2 {
		t.Fatalf("red steps = %d, want 2 (m1 × m5 cross)", ord.RedSteps)
	}
	if !ord.Steps[1].Cross {
		t.Fatal("second red step should be a cross product (R2)")
	}
	// a2 joins afterwards via the blue edge.
	last := ord.Steps[2]
	if len(last.Edges) != 1 || g.EdgeColor(last.Edges[0]) != Blue {
		t.Fatalf("a2 should join via its blue edge, got %+v", last)
	}
}

func TestEdgeColors(t *testing.T) {
	g := &Graph{
		Verts: []Vertex{
			{Table: "m", Class: table.GivenMetadata},
			{Table: "h", Class: table.DerivedMetadata},
			{Table: "a", Class: table.ActualData},
			{Table: "b", Class: table.ActualData},
		},
	}
	cases := []struct {
		a, b int
		want Color
	}{
		{0, 1, Red}, {0, 2, Blue}, {1, 2, Blue}, {2, 3, Black},
	}
	for _, c := range cases {
		if got := g.EdgeColor(GraphEdge{A: c.a, B: c.b}); got != c.want {
			t.Errorf("edge %d-%d color = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if Red.String() != "red" || Blue.String() != "blue" || Black.String() != "black" {
		t.Fatal("color names")
	}
}

// TestJoinSetOut: a narrowed join reports the narrowed schema, renders
// as out=k/n over its inputs' current schemas, and widens back on nil.
func TestJoinSetOut(t *testing.T) {
	cat := seismic.NewCatalog()
	f, _ := cat.Table(seismic.TableF)
	s, _ := cat.Table(seismic.TableS)
	j := NewJoin(NewScanCols(f, nil, []int{0, 1}), NewScan(s, nil),
		[]table.JoinPred{{Left: "F.file_id", Right: "S.file_id"}})
	full := len(j.Names())
	if j.String() != "join(F.file_id=S.file_id)" || full != 2+s.Schema.Width() {
		t.Fatalf("full join: %s, %d columns", j, full)
	}
	j.SetOut([]int{3, 0})
	if got := j.Names(); len(got) != 2 || got[0] != j.R.Names()[1] || got[1] != j.L.Names()[0] {
		t.Fatalf("narrowed names = %v", got)
	}
	if len(j.Kinds()) != 2 || j.Kinds()[1] != j.L.Kinds()[0] {
		t.Fatalf("narrowed kinds = %v", j.Kinds())
	}
	if want := "join(F.file_id=S.file_id out=2/8)"; j.String() != want {
		t.Fatalf("rendered %s, want %s", j, want)
	}
	if j.SetOut(nil); len(j.Names()) != full {
		t.Fatalf("SetOut(nil) left %d of %d columns", len(j.Names()), full)
	}
}
