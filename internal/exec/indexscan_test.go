package exec

import (
	"context"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/index"
	"sommelier/internal/opt"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// compileIx compiles with the environment's index access paths exposed
// to the optimizer's index-key recognition rule.
func compileIx(env *Env, cat *table.Catalog, q *plan.Query) (*plan.Plan, error) {
	p, err := plan.Build(cat, q)
	if err != nil {
		return nil, err
	}
	ctx := &opt.Context{Catalog: cat, MetaIndexes: map[string][][]string{}}
	for tn, mis := range env.MetaIndexes {
		for _, mi := range mis {
			ctx.MetaIndexes[tn] = append(ctx.MetaIndexes[tn], mi.Cols)
		}
	}
	return opt.Optimize(ctx, p, opt.Default())
}

// indexedEnv clusters all chunks and builds a (station, channel) index
// on F, mirroring the eager_index investment.
func indexedEnv(t *testing.T, nFiles int) (*Env, *table.Catalog) {
	t.Helper()
	cat, loader := setupCatalog(t, nFiles)
	d, _ := cat.Table(seismic.TableD)
	for _, id := range loader.chunks {
		rel, _, err := loader.LoadChunkInto(context.Background(), seismic.TableD, id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Chunks().Install(id, rel)
	}
	f, _ := cat.Table(seismic.TableF)
	fFlat := f.Data().Flatten()
	ix, err := index.BuildHash(fFlat, []int{
		f.Schema.IndexOf("station"), f.Schema.IndexOf("channel"),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{
		Catalog: cat,
		Mode:    ModeEagerIndexed,
		MetaIndexes: map[string][]MetaIndex{
			seismic.TableF: {{Cols: []string{"station", "channel"}, Ix: ix, Data: fFlat}},
		},
	}
	return env, cat
}

func TestIndexScanUsedForPinnedColumns(t *testing.T) {
	env, cat := indexedEnv(t, 8)
	// Station AND channel pinned: the index applies.
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggSum, Expr: expr.Col("D.sample_value"), Alias: "s"}},
		From:   seismic.ViewData,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("F.channel"), expr.Str("HHZ")),
		}),
	}
	p, err := compileIx(env, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexScans == 0 {
		t.Fatal("index-scan access path not used")
	}
	// Compare against a full-scan execution.
	envNoIx := &Env{Catalog: cat, Mode: ModeEagerIndexed}
	p2, _ := plan.Build(cat, q)
	res2, err := Execute(context.Background(), envNoIx, p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.IndexScans != 0 {
		t.Fatal("phantom index scan")
	}
	a := storage.Float64s(res.Rel.Flatten().Cols[0])[0]
	b := storage.Float64s(res2.Rel.Flatten().Cols[0])[0]
	if a != b {
		t.Fatalf("index scan changed the answer: %v vs %v", a, b)
	}
}

func TestIndexScanResidualPredicate(t *testing.T) {
	env, cat := indexedEnv(t, 8)
	// Index columns pinned plus an extra predicate on uri: the extra
	// conjunct must be applied as a residual filter.
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableF,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
			expr.NewCmp(expr.EQ, expr.Col("channel"), expr.Str("HHZ")),
			expr.NewCmp(expr.EQ, expr.Col("uri"), expr.Str("repo/chunk-0.msl")),
		}),
	}
	p, err := compileIx(env, cat, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexScans != 1 {
		t.Fatalf("index scans = %d", res.Stats.IndexScans)
	}
	if got := storage.Int64s(res.Rel.Flatten().Cols[0])[0]; got != 1 {
		t.Fatalf("count = %d", got)
	}
}

func TestIndexScanNotUsedForPartialKey(t *testing.T) {
	env, cat := indexedEnv(t, 8)
	// Only station pinned: the two-column index must not fire.
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableF,
		Where:  expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
	}
	p, _ := compileIx(env, cat, q)
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexScans != 0 {
		t.Fatal("index used with partial key")
	}
	if got := storage.Int64s(res.Rel.Flatten().Cols[0])[0]; got != 4 {
		t.Fatalf("count = %d", got)
	}
}

func TestIndexScanAbsentKeyReturnsEmpty(t *testing.T) {
	env, cat := indexedEnv(t, 4)
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableF,
		Where: expr.Conjoin([]expr.Expr{
			expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("NOPE")),
			expr.NewCmp(expr.EQ, expr.Col("channel"), expr.Str("HHZ")),
		}),
	}
	p, _ := compileIx(env, cat, q)
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.Int64s(res.Rel.Flatten().Cols[0])[0]; got != 0 {
		t.Fatalf("count = %d", got)
	}
}
