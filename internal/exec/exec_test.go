package exec

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"sommelier/internal/chunkstore"
	"sommelier/internal/expr"
	"sommelier/internal/fault"
	"sommelier/internal/opt"
	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// compile is the test shorthand for the engine's compile pipeline:
// name resolution (plan.Build) followed by the full rule-based
// optimizer, without index access paths.
func compile(cat *table.Catalog, q *plan.Query) (*plan.Plan, error) {
	p, err := plan.Build(cat, q)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(&opt.Context{Catalog: cat}, p, opt.Default())
}

// fakeLoader serves synthetic chunks: chunk id n holds rows with
// sample values n*100 .. n*100+9 and records every load.
type fakeLoader struct {
	mu     sync.Mutex
	loads  []int64
	chunks []int64
	fail   map[int64]bool
	delay  time.Duration
}

func (l *fakeLoader) LoadChunkInto(_ context.Context, tableName string, chunkID int64, _ []int64, _ *storage.ChunkMem) (*storage.Relation, []int64, error) {
	l.mu.Lock()
	l.loads = append(l.loads, chunkID)
	fail := l.fail[chunkID]
	l.mu.Unlock()
	if fail {
		return nil, nil, fmt.Errorf("fake: chunk %d unavailable", chunkID)
	}
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
	const n = 10
	ids := make([]int64, n)
	segs := make([]int64, n)
	ts := make([]int64, n)
	vs := make([]float64, n)
	wins := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = chunkID
		segs[i] = 0
		ts[i] = chunkID*1_000_000 + int64(i)
		vs[i] = float64(chunkID*100 + int64(i))
		wins[i] = seismic.WindowStart(ts[i])
	}
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(
		storage.NewInt64Column(ids),
		storage.NewInt64Column(segs),
		storage.NewTimeColumn(ts),
		storage.NewFloat64Column(vs),
		storage.NewTimeColumn(wins),
	))
	return rel, nil, nil
}

func (l *fakeLoader) AllChunkIDs(tableName string) []int64 {
	return append([]int64{}, l.chunks...)
}

func (l *fakeLoader) loadCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.loads)
}

// setupCatalog fills the seismic metadata tables for nFiles chunks, one
// segment each, alternating stations ISK/FIAM.
func setupCatalog(t *testing.T, nFiles int) (*table.Catalog, *fakeLoader) {
	t.Helper()
	cat := seismic.NewCatalog()
	f, _ := cat.Table(seismic.TableF)
	s, _ := cat.Table(seismic.TableS)
	loader := &fakeLoader{fail: make(map[int64]bool)}
	for i := 0; i < nFiles; i++ {
		id := int64(i)
		station := "ISK"
		if i%2 == 1 {
			station = "FIAM"
		}
		err := f.Append(storage.NewBatch(
			storage.NewInt64Column([]int64{id}),
			storage.NewStringColumn([]string{fmt.Sprintf("repo/chunk-%d.msl", id)}),
			storage.NewStringColumn([]string{"IV"}),
			storage.NewStringColumn([]string{station}),
			storage.NewStringColumn([]string{"00"}),
			storage.NewStringColumn([]string{"HHZ"}),
			storage.NewStringColumn([]string{"D"}),
			storage.NewInt64Column([]int64{10}),
			storage.NewStringColumn([]string{"LE"}),
		))
		if err != nil {
			t.Fatal(err)
		}
		err = s.Append(storage.NewBatch(
			storage.NewInt64Column([]int64{id}),
			storage.NewInt64Column([]int64{0}),
			storage.NewTimeColumn([]int64{id * 1_000_000}),
			storage.NewTimeColumn([]int64{id*1_000_000 + 10}),
			storage.NewFloat64Column([]float64{20}),
			storage.NewInt64Column([]int64{10}),
		))
		if err != nil {
			t.Fatal(err)
		}
		loader.chunks = append(loader.chunks, id)
	}
	return cat, loader
}

// t4Query selects data of one station through the dataview.
func t4Query(station string) *plan.Query {
	return &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggSum, Expr: expr.Col("D.sample_value"), Alias: "sum_val"}},
		From:   seismic.ViewData,
		Where:  expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.Str(station)),
	}
}

// lazyEnv configures the D store to load through loader, caching up to
// cacheBytes (0: every load transient).
func lazyEnv(cat *table.Catalog, loader chunkstore.Loader, cacheBytes int64) *Env {
	return lazyEnvFaults(cat, loader, cacheBytes, nil)
}

// lazyEnvFaults is lazyEnv with a fault schedule armed on the loads and
// stage two alike.
func lazyEnvFaults(cat *table.Catalog, loader chunkstore.Loader, cacheBytes int64, inj *fault.Injector) *Env {
	d, _ := cat.Table(seismic.TableD)
	d.Chunks().Configure(chunkstore.Config{Loader: loader, CacheBytes: cacheBytes, Faults: inj})
	return &Env{Catalog: cat, Mode: ModeLazy, Faults: inj}
}

func TestLazyLoadsOnlySelectedChunks(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ISK owns the 5 even chunks; only those may be loaded.
	if res.Stats.ChunksSelected != 5 || res.Stats.ChunksLoaded != 5 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	for _, id := range loader.loads {
		if id%2 != 0 {
			t.Fatalf("chunk %d loaded for ISK", id)
		}
	}
	// sum over chunks 0,2,4,6,8 of (100c .. 100c+9).
	want := 0.0
	for _, c := range []int64{0, 2, 4, 6, 8} {
		for i := 0; i < 10; i++ {
			want += float64(c*100 + int64(i))
		}
	}
	got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Without a recycler the chunks are transient: nothing resident.
	d, _ := cat.Table(seismic.TableD)
	if d.Rows() != 0 {
		t.Fatalf("transient chunks left resident: %d rows", d.Rows())
	}
}

func TestLazyCacheHitsOnSecondRun(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	env := lazyEnv(cat, loader, 1<<30)
	p, _ := compile(cat, t4Query("ISK"))
	res1, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.CacheHits != 0 || res1.Stats.ChunksLoaded != 5 {
		t.Fatalf("first run stats = %+v", res1.Stats)
	}
	p2, _ := compile(cat, t4Query("ISK"))
	res2, err := Execute(context.Background(), env, p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 5 || res2.Stats.ChunksLoaded != 0 {
		t.Fatalf("second run stats = %+v", res2.Stats)
	}
	if loader.loadCount() != 5 {
		t.Fatalf("loader called %d times", loader.loadCount())
	}
	// Same answer both times.
	a := storage.Float64s(res1.Rel.Flatten().Cols[0])[0]
	b := storage.Float64s(res2.Rel.Flatten().Cols[0])[0]
	if a != b {
		t.Fatalf("hot run changed the answer: %v vs %v", a, b)
	}
}

func TestCacheEvictionReloads(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	// Capacity for roughly two chunks only.
	var chunkSize int64
	{
		rel, _, _ := loader.LoadChunkInto(context.Background(), seismic.TableD, 0, nil, nil)
		chunkSize = rel.MemSize()
		loader.loads = nil
	}
	env := lazyEnv(cat, loader, chunkSize*2+1)
	p, _ := compile(cat, t4Query("ISK"))
	if _, err := Execute(context.Background(), env, p, Options{}); err != nil {
		t.Fatal(err)
	}
	// Only 2 of 5 chunks fit; a second run must reload the evicted 3.
	p2, _ := compile(cat, t4Query("ISK"))
	res, err := Execute(context.Background(), env, p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 2 || res.Stats.ChunksLoaded != 3 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestEagerFullScansEverything(t *testing.T) {
	cat, loader := setupCatalog(t, 6)
	d, _ := cat.Table(seismic.TableD)
	// Eager plain: one monolithic chunk holding all data.
	all := storage.NewRelation()
	for _, id := range loader.chunks {
		rel, _, _ := loader.LoadChunkInto(context.Background(), seismic.TableD, id, nil, nil)
		for _, b := range rel.Batches() {
			all.Append(b)
		}
	}
	d.Chunks().Install(-1, all)
	loader.loads = nil
	env := &Env{Catalog: cat, Mode: ModeEagerFull}
	p, _ := compile(cat, t4Query("FIAM"))
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loader.loadCount() != 0 {
		t.Fatal("eager mode called the loader")
	}
	want := 0.0
	for _, c := range []int64{1, 3, 5} {
		for i := 0; i < 10; i++ {
			want += float64(c*100 + int64(i))
		}
	}
	if got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestEagerIndexedPrunesChunks(t *testing.T) {
	cat, loader := setupCatalog(t, 6)
	d, _ := cat.Table(seismic.TableD)
	for _, id := range loader.chunks {
		rel, _, _ := loader.LoadChunkInto(context.Background(), seismic.TableD, id, nil, nil)
		d.Chunks().Install(id, rel)
	}
	env := &Env{Catalog: cat, Mode: ModeEagerIndexed}
	p, _ := compile(cat, t4Query("FIAM"))
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChunksSelected != 3 {
		t.Fatalf("selected = %d, want 3", res.Stats.ChunksSelected)
	}
	want := 0.0
	for _, c := range []int64{1, 3, 5} {
		for i := 0; i < 10; i++ {
			want += float64(c*100 + int64(i))
		}
	}
	if got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestLazyEagerEquivalence(t *testing.T) {
	// The crucial end-to-end invariant: lazy and eager produce the
	// same answers.
	for _, station := range []string{"ISK", "FIAM"} {
		catL, loaderL := setupCatalog(t, 8)
		pL, _ := compile(catL, t4Query(station))
		resL, err := Execute(context.Background(), lazyEnv(catL, loaderL, 0), pL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		catE, loaderE := setupCatalog(t, 8)
		dE, _ := catE.Table(seismic.TableD)
		all := storage.NewRelation()
		for _, id := range loaderE.chunks {
			rel, _, _ := loaderE.LoadChunkInto(context.Background(), seismic.TableD, id, nil, nil)
			for _, b := range rel.Batches() {
				all.Append(b)
			}
		}
		dE.Chunks().Install(-1, all)
		pE, _ := compile(catE, t4Query(station))
		resE, err := Execute(context.Background(), &Env{Catalog: catE, Mode: ModeEagerFull}, pE, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l := storage.Float64s(resL.Rel.Flatten().Cols[0])[0]
		e := storage.Float64s(resE.Rel.Flatten().Cols[0])[0]
		if l != e {
			t.Fatalf("station %s: lazy %v != eager %v", station, l, e)
		}
	}
}

func TestMetadataOnlyQueryLoadsNothing(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	q := &plan.Query{
		Select: []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:   seismic.TableF,
		Where:  expr.NewCmp(expr.EQ, expr.Col("station"), expr.Str("ISK")),
	}
	p, err := compile(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loader.loadCount() != 0 {
		t.Fatal("metadata-only query ingested chunks")
	}
	if got := storage.Int64s(res.Rel.Flatten().Cols[0])[0]; got != 5 {
		t.Fatalf("count = %d", got)
	}
}

func TestChunkLoadFailureSurfaces(t *testing.T) {
	cat, loader := setupCatalog(t, 4)
	loader.fail[2] = true
	p, _ := compile(cat, t4Query("ISK"))
	if _, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{}); err == nil {
		t.Fatal("failed chunk load not surfaced")
	}
}

func TestSerialVsParallelLoadSameResult(t *testing.T) {
	catP, loaderP := setupCatalog(t, 12)
	loaderP.delay = time.Millisecond
	envP := lazyEnv(catP, loaderP, 0)
	pP, _ := compile(catP, t4Query("ISK"))
	resP, err := Execute(context.Background(), envP, pP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	catS, loaderS := setupCatalog(t, 12)
	loaderS.delay = time.Millisecond
	envS := lazyEnv(catS, loaderS, 0)
	envS.MaxParallel = 1
	pS, _ := compile(catS, t4Query("ISK"))
	resS, err := Execute(context.Background(), envS, pS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := storage.Float64s(resP.Rel.Flatten().Cols[0])[0]
	b := storage.Float64s(resS.Rel.Flatten().Cols[0])[0]
	if a != b {
		t.Fatalf("parallel %v != serial %v", a, b)
	}
	// Serial loading must preserve the loader call count.
	if loaderS.loadCount() != loaderP.loadCount() {
		t.Fatal("different number of loads")
	}
}

func TestSelectedChunksAreSorted(t *testing.T) {
	cat, loader := setupCatalog(t, 9)
	p, _ := compile(cat, t4Query("ISK"))
	ex := &executor{ctx: context.Background(), env: lazyEnv(cat, loader, 0), plan: p}
	res, err := ex.run()
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	ids := ex.selected[seismic.TableD]
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("chunk ids not sorted: %v", ids)
	}
	segs := ex.segs[seismic.TableD]
	if len(ids) < 2 || len(segs) != len(ids) {
		t.Fatalf("%d chunks with segments %v: the reordering below proves nothing", len(ids), segs)
	}
	for id, ss := range segs {
		if !slices.IsSorted(ss) || len(slices.Compact(slices.Clone(ss))) != len(ss) {
			t.Fatalf("chunk %d segments not ascending and distinct: %v", id, ss)
		}
	}

	// Qf rows in reverse order, each twice: out of chunk order and with
	// duplicate (chunk, segment) pairs. The selection is the same.
	flat := ex.qfRel.Flatten()
	var rows []int32
	for r := flat.Len() - 1; r >= 0; r-- {
		rows = append(rows, int32(r), int32(r))
	}
	ex.qfRel = storage.NewRelation()
	ex.qfRel.Append(flat.Gather(rows))
	if err := ex.selectChunks(); err != nil {
		t.Fatal(err)
	}
	if got := ex.selected[seismic.TableD]; !slices.Equal(got, ids) {
		t.Fatalf("reordered Qf selects chunks %v, want %v", got, ids)
	}
	if got := ex.segs[seismic.TableD]; !maps.EqualFunc(got, segs, slices.Equal[[]int64]) {
		t.Fatalf("reordered Qf selects segments %v, want %v", got, segs)
	}
}

func TestStatsTiming(t *testing.T) {
	cat, loader := setupCatalog(t, 4)
	loader.delay = 2 * time.Millisecond
	p, _ := compile(cat, t4Query("ISK"))
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Load <= 0 {
		t.Fatalf("load time not recorded: %+v", res.Stats)
	}
	if res.Stats.Total() < res.Stats.Load {
		t.Fatal("total < load")
	}
}

func TestContextCancellation(t *testing.T) {
	cat, loader := setupCatalog(t, 12)
	loader.delay = 5 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before execution
	p, _ := compile(cat, t4Query("ISK"))
	if _, err := Execute(ctx, lazyEnv(cat, loader, 0), p, Options{}); err == nil {
		t.Fatal("cancelled context not honoured")
	}
	// A timeout mid-load aborts ingestion.
	cat2, loader2 := setupCatalog(t, 12)
	loader2.delay = 20 * time.Millisecond
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	env := lazyEnv(cat2, loader2, 0)
	env.MaxParallel = 1
	p2, _ := compile(cat2, t4Query("ISK"))
	if _, err := Execute(ctx2, env, p2, Options{}); err == nil {
		t.Fatal("timeout not honoured during chunk ingestion")
	}
}
