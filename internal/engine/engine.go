// Package engine ties the system together: it opens a chunk repository
// under one of the five loading approaches, maintains the warehouse
// catalog, the chunk recycler and the derived-metadata manager, and
// answers SQL queries through the two-stage executor.
package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/chunkstore"
	"sommelier/internal/dmd"
	"sommelier/internal/exec"
	"sommelier/internal/expr"
	"sommelier/internal/fault"
	"sommelier/internal/opt"
	"sommelier/internal/physical"
	"sommelier/internal/plan"
	"sommelier/internal/registrar"
	"sommelier/internal/seismic"
	"sommelier/internal/sqlparse"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Config parameterizes Open.
type Config struct {
	// Approach selects the loading strategy; default lazy.
	Approach registrar.Approach
	// CacheBytes bounds the recycler; 0 picks a large default.
	// Negative disables caching entirely.
	CacheBytes int64
	// CachePolicy selects the replacement policy (default LRU, as in
	// the paper; CostAware is the "smarter caching" extension).
	CachePolicy cache.Policy
	// CacheDir enables the persistent disk cache tier (lazy approach
	// only): chunks evicted from RAM spill to a verified segment file
	// here, misses promote them back without touching raw miniSEED, and
	// Close persists the metadata snapshot, the derived-metadata view
	// and the hot statement set so the next Open is a warm restart.
	// Empty keeps the cache RAM-only, exactly as before.
	CacheDir string
	// DiskCacheBytes bounds the disk tier's segment file; ≤0 means
	// unbounded. Blocks that would exceed the bound are refused (they
	// stay archive-only), never evicted — the disk tier is append-only
	// within a process lifetime.
	DiskCacheBytes int64
	// MaxParallel bounds a query's chunk-ingestion fan-out. 0 = adaptive
	// (GOMAXPROCS shared across in-flight queries), 1 = serial loads (the
	// parallel-load ablation), any other value is taken literally.
	MaxParallel int
	// PlanCacheSize bounds the compiled-plan cache (entries). 0 picks
	// DefaultPlanCacheSize; negative disables plan caching.
	PlanCacheSize int
	// OptDisable lists logical-optimizer rules to disable, comma
	// separated ("all" disables every rule; see internal/opt). Empty
	// runs every rule.
	OptDisable string
	// MaxQueryBytes caps the bytes any single query may materialize
	// into its own buffers (result relations, sort input, join build
	// side, streaming run-ahead); 0 = unlimited. A query over the
	// ceiling fails with a *storage.QuotaError — the multi-tenant
	// admission-control knob (sommelierd -max-query-bytes).
	MaxQueryBytes int64
	// GlobalMemoryBytes bounds the *sum* of all concurrent queries'
	// materialized bytes via a process-wide memory governor that every
	// per-query quota reserves from; 0 = ungoverned. Per-query
	// ceilings alone do not compose — sixteen queries each under their
	// own MaxQueryBytes can still OOM the process together. A query
	// that cannot reserve within the governor's bounded wait fails
	// with a *storage.GovernorError, which sommelierd answers with
	// 429 + Retry-After (sommelierd -global-memory-bytes).
	GlobalMemoryBytes int64
	// GovernorWait bounds how long a query's charge may wait for
	// global memory before shedding; 0 = storage.DefaultGovernorWait.
	GovernorWait time.Duration
	// Degraded makes partial results the default: a query whose chunk
	// fetch ultimately fails (exhausted retries, quarantine, open
	// circuit breaker) proceeds over the available chunks and carries
	// one Result.Warnings entry per skipped chunk. False keeps strict
	// fail-fast semantics. Either default is overridable per query via
	// WithDegraded.
	Degraded bool
	// Faults is the fault-injection schedule for this database's
	// ingestion path, in internal/fault spec syntax
	// ("point=kind:rate[:dur],..."). Empty injects nothing.
	Faults string
	// FaultSeed drives the deterministic fault decisions when Faults
	// is set.
	FaultSeed int64
}

// DefaultCacheBytes is the recycler capacity when none is configured.
const DefaultCacheBytes = 4 << 30

// DB is an open database over one registered repository.
//
// A DB is safe for concurrent use: any number of goroutines may call
// Query/QueryContext/Run simultaneously. The chunk store deduplicates
// concurrent loads of the same missing chunk and holds the memory of
// every chunk a query scans, so another query's eviction cannot yank it
// mid-scan; derived-metadata maintenance (Algorithm 1) serializes behind
// the DMd manager's lock. Two concurrent queries therefore return
// exactly what they would have returned when run serially.
type DB struct {
	cat     *table.Catalog
	repo    registrar.ChunkSource
	env     *exec.Env
	chunks  *chunkstore.Store // the D table's chunk store
	dmd     *dmd.Manager
	indexes *registrar.Indexes

	// disk is the persistent cache tier (nil without Config.CacheDir);
	// cacheDir/fingerprint/warmStart carry the warm-restart state (see
	// warm.go).
	disk        *cache.DiskTier
	cacheDir    string
	fingerprint string
	warmStart   bool

	// optCtx/optRules parameterize the logical optimizer; plans is the
	// bounded LRU of compiled statements keyed by normalized SQL.
	optCtx   opt.Context
	optRules opt.Options
	plans    *planCache

	// seriesPlan is the derived-metadata fetcher's parameterized series
	// query, compiled on first use and replayed per derivation.
	seriesOnce sync.Once
	seriesPlan *plan.Plan
	seriesErr  error

	reportMu sync.Mutex
	report   registrar.Report
}

// Open registers the local repository under dir with the given approach
// and returns a queryable database. The returned report carries the
// full preparation cost breakdown (Figure 6) and size accounting
// (Table III).
func Open(dir string, cfg Config) (*DB, error) {
	repo, err := registrar.DiscoverRepository(dir)
	if err != nil {
		return nil, err
	}
	return OpenSource(repo, dir+"-csv", cfg)
}

// OpenSource registers any chunk source — a local directory, an HTTP
// archive (registrar.HTTPRepository), or a custom implementation — the
// paper's "Other Sources" extension point. csvDir is the scratch
// directory for the eager_csv detour; empty uses a temp dir.
func OpenSource(repo registrar.ChunkSource, csvDir string, cfg Config) (*DB, error) {
	if cfg.Approach == "" {
		cfg.Approach = registrar.Lazy
	}
	if csvDir == "" {
		d, err := os.MkdirTemp("", "sommelier-csv-")
		if err != nil {
			return nil, err
		}
		csvDir = d
	}
	db := &DB{repo: repo}
	db.report.Approach = cfg.Approach
	db.report.Files = len(repo.URIs())

	// With a cache directory (lazy approach only), try a warm restart:
	// a verified metadata snapshot replaces the per-file registration
	// pass entirely — zero raw-miniSEED reads.
	if cfg.Approach == registrar.Lazy && cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, err
		}
		db.cacheDir = cfg.CacheDir
		db.fingerprint = snapshotFingerprint(repo.URIs())
		// A cache dir populated from a different archive is wiped here,
		// before the disk tier below can open its segments: chunk IDs
		// are positional, so cross-archive reuse would be wrong data,
		// not just a stale cache.
		if err := ensureCacheFingerprint(db.cacheDir, db.fingerprint); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if cat, nSegs := loadMetaSnapshot(filepath.Join(db.cacheDir, metaSnapFile), db.fingerprint); cat != nil {
			db.cat, db.warmStart = cat, true
			db.report.Segments = nSegs
			db.report.MetadataTime = time.Since(t0)
		}
	}
	if !db.warmStart {
		db.cat = seismic.NewCatalog()
		// All approaches start with the Registrar: eager loading of the
		// given metadata.
		nSegs, mdTime, err := registrar.RegisterMetadata(db.cat, repo)
		if err != nil {
			return nil, err
		}
		db.report.Segments = nSegs
		db.report.MetadataTime = mdTime
	}
	d, _ := db.cat.Table(seismic.TableD)
	db.chunks = d.Chunks()

	switch cfg.Approach {
	case registrar.Lazy:
		if db.cacheDir != "" {
			dt, err := cache.OpenDiskTier(db.cacheDir, seismic.TableD, cfg.DiskCacheBytes)
			if err != nil {
				return nil, err
			}
			db.disk = dt
		}
		db.env = &exec.Env{Catalog: db.cat, Mode: exec.ModeLazy, MaxParallel: cfg.MaxParallel}
	case registrar.EagerCSV:
		rows, csvBytes, toCSV, toDB, err := registrar.LoadAllCSV(db.cat, repo, csvDir)
		if err != nil {
			return nil, err
		}
		db.report.Rows = rows
		db.report.CSVBytes = csvBytes
		db.report.Breakdown.MseedToCSV = toCSV
		db.report.Breakdown.CSVToDB = toDB
		db.env = &exec.Env{Catalog: db.cat, Mode: exec.ModeEagerFull, MaxParallel: cfg.MaxParallel}
	case registrar.EagerPlain:
		rows, dur, err := registrar.LoadAllPlain(db.cat, repo)
		if err != nil {
			return nil, err
		}
		db.report.Rows = rows
		db.report.Breakdown.MseedToDB = dur
		db.env = &exec.Env{Catalog: db.cat, Mode: exec.ModeEagerFull, MaxParallel: cfg.MaxParallel}
	case registrar.EagerIndex, registrar.EagerDMd:
		rows, dur, err := registrar.LoadAllClustered(db.cat, repo)
		if err != nil {
			return nil, err
		}
		db.report.Rows = rows
		db.report.Breakdown.MseedToDB = dur
		ix, ixDur, err := registrar.BuildIndexes(db.cat)
		if err != nil {
			return nil, err
		}
		db.indexes = ix
		db.report.Breakdown.Indexing = ixDur
		db.env = &exec.Env{Catalog: db.cat, Mode: exec.ModeEagerIndexed, MaxParallel: cfg.MaxParallel}
		// Expose the hash indexes as index-scan access paths.
		db.env.MetaIndexes = map[string][]exec.MetaIndex{
			seismic.TableF: {
				{Cols: []string{"station", "channel"}, Ix: ix.FByStaCh, Data: ix.FMeta},
				{Cols: []string{"file_id"}, Ix: ix.FByID, Data: ix.FMeta},
			},
			seismic.TableS: {
				{Cols: []string{"file_id", "segment_id"}, Ix: ix.SByKey, Data: ix.SMeta},
			},
		}
	default:
		return nil, fmt.Errorf("engine: unknown approach %q", cfg.Approach)
	}

	// The logical optimizer's view of the environment: the catalog plus
	// the key columns of every index access path.
	db.optCtx = opt.Context{Catalog: db.cat}
	if len(db.env.MetaIndexes) > 0 {
		db.optCtx.MetaIndexes = make(map[string][][]string, len(db.env.MetaIndexes))
		for tn, mis := range db.env.MetaIndexes {
			for _, mi := range mis {
				db.optCtx.MetaIndexes[tn] = append(db.optCtx.MetaIndexes[tn], mi.Cols)
			}
		}
	}
	db.optRules = opt.ParseDisable(cfg.OptDisable)
	size := cfg.PlanCacheSize
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	db.plans = newPlanCache(size)
	db.env.MaxQueryBytes = cfg.MaxQueryBytes
	db.env.Governor = storage.NewGovernor(cfg.GlobalMemoryBytes, cfg.GovernorWait)
	db.env.Degraded = cfg.Degraded
	if strings.TrimSpace(cfg.Faults) != "" {
		// Unset, the injector stays nil: the injection checks reduce to
		// a nil-receiver branch.
		inj, err := fault.New(cfg.Faults, cfg.FaultSeed)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		db.env.Faults = inj
	}
	if fc, ok := repo.(registrar.FaultConfigurable); ok {
		fc.SetFaults(db.env.Faults)
	}
	if cfg.Approach == registrar.Lazy {
		capacity := cfg.CacheBytes
		if capacity == 0 {
			capacity = DefaultCacheBytes
		}
		db.chunks.Configure(chunkstore.Config{
			Loader:     repo,
			CacheBytes: capacity,
			Policy:     cfg.CachePolicy,
			Disk:       db.disk,
			Faults:     db.env.Faults,
		})
	}

	db.dmd = dmd.NewManager(db.cat, fetcherFunc(db.fetchSeries))
	if cfg.Approach == registrar.EagerDMd {
		if _, dur, err := db.dmd.DeriveAll(); err != nil {
			return nil, err
		} else {
			db.report.Breakdown.DMdDerivation = dur
		}
	}
	if db.warmStart {
		// Best-effort: the hot statement set, so the first requests skip
		// compilation. A failure just means a colder start.
		db.precompilePlans(filepath.Join(db.cacheDir, plansFile))
	}
	db.fillSizes()
	return db, nil
}

// fetcherFunc adapts a function to the dmd.Fetcher interface.
type fetcherFunc func(station, channel string, from, to int64) ([]int64, []float64, error)

func (f fetcherFunc) FetchSeries(station, channel string, from, to int64) ([]int64, []float64, error) {
	return f(station, channel, from, to)
}

// fetchSeries retrieves one station/channel series through the regular
// two-stage execution path, so DMd derivation exploits lazy loading.
// The fixed-shape series query is compiled once (parameterized) and
// replayed per derivation, like any other prepared statement.
func (db *DB) fetchSeries(station, channel string, from, to int64) ([]int64, []float64, error) {
	db.seriesOnce.Do(func() {
		q := &plan.Query{
			Select: []plan.SelectItem{
				{Expr: expr.Col("D.sample_time")},
				{Expr: expr.Col("D.sample_value")},
			},
			From: seismic.ViewData,
			Where: expr.Conjoin([]expr.Expr{
				expr.NewCmp(expr.EQ, expr.Col("F.station"), expr.NewParam(0)),
				expr.NewCmp(expr.EQ, expr.Col("F.channel"), expr.NewParam(1)),
				expr.NewCmp(expr.GE, expr.Col("D.sample_time"), expr.NewParam(2)),
				expr.NewCmp(expr.LT, expr.Col("D.sample_time"), expr.NewParam(3)),
			}),
		}
		db.seriesPlan, db.seriesErr = db.compileQuery(q)
	})
	if db.seriesErr != nil {
		return nil, nil, db.seriesErr
	}
	args := []*expr.Const{expr.Str(station), expr.Str(channel), expr.Time(from), expr.Time(to)}
	// Derived windows outlive the query that derives them: a series
	// missing a skipped chunk would summarize it wrongly for every later
	// query, so derivation is strict whatever the degraded mode.
	res, err := exec.Execute(WithDegraded(context.Background(), false), db.env, db.seriesPlan, exec.Options{Params: args})
	if err != nil {
		return nil, nil, err
	}
	defer res.Release()
	flat := res.Rel.Flatten()
	if flat.Len() == 0 {
		return nil, nil, nil
	}
	times, vals := storage.Int64s(flat.Cols[0]), storage.Float64s(flat.Cols[1])
	if len(res.Rel.Batches()) == 1 {
		// flat IS the single batch, whose rows may alias a chunk's arena:
		// copy them out before the release hands the arena back.
		times, vals = slices.Clone(times), slices.Clone(vals)
	}
	return times, vals, nil
}

func (db *DB) fillSizes() {
	fT, _ := db.cat.Table(seismic.TableF)
	sT, _ := db.cat.Table(seismic.TableS)
	dT, _ := db.cat.Table(seismic.TableD)
	hT, _ := db.cat.Table(seismic.TableH)
	db.reportMu.Lock()
	defer db.reportMu.Unlock()
	db.report.MetadataBytes = fT.MemSize() + sT.MemSize()
	db.report.DataBytes = dT.MemSize() + hT.MemSize()
	db.report.IndexBytes = db.indexes.MemSize()
	if sz, ok := db.repo.(interface{ TotalBytes() int64 }); ok {
		db.report.MseedBytes = sz.TotalBytes()
	}
}

// Warning aliases exec.Warning: one chunk a degraded query skipped.
type Warning = exec.Warning

// WithDegraded overrides the database's degraded-mode default for
// queries run under the returned context (see Config.Degraded).
func WithDegraded(ctx context.Context, degraded bool) context.Context {
	return exec.WithDegraded(ctx, degraded)
}

// SourceHealth reports the chunk source's reliability state — per-host
// circuit breakers, quarantine population, retry counters — when the
// source tracks it (registrar.HTTPRepository does); nil otherwise.
func (db *DB) SourceHealth() *registrar.Health {
	if h, ok := db.repo.(interface{ Health() registrar.Health }); ok {
		health := h.Health()
		return &health
	}
	return nil
}

// FaultInjector exposes the engine's fault injector — nil unless
// Config.Faults armed one. Benchmarks use it to report how many faults
// actually fired during a run.
func (db *DB) FaultInjector() *fault.Injector { return db.env.Faults }

// Governor exposes the process-wide memory governor — nil unless
// Config.GlobalMemoryBytes bounded it — for the server's /stats and
// /readyz probes.
func (db *DB) Governor() *storage.Governor { return db.env.Governor }

// Result is a completed query with full provenance.
type Result struct {
	*exec.Result
	// QueryType per the paper's Table I taxonomy.
	QueryType int
	// DMd reports the Algorithm 1 work done before execution.
	DMd dmd.Stats
	// Plan is the compiled plan (for inspection / rendering). Plans may
	// come from the shared compiled-plan cache: treat as read-only.
	Plan *plan.Plan
	// Compile is the time this call spent in parse + plan.Build + opt
	// (on a plan-cache hit only the parse/lookup remains; zero on the
	// prepared-statement path, which compiles nothing).
	Compile time.Duration
	// PlanCacheHit marks that the compiled plan came from the cache.
	PlanCacheHit bool
}

// compiled is one cache-resident compiled statement: the parsed
// specification and its optimized, immutable, freely shareable plan.
type compiled struct {
	query *plan.Query
	plan  *plan.Plan
}

// compileQuery is the single compile entry point below the cache:
// name resolution and typing (plan.Build) followed by the rule-based
// logical optimizer.
func (db *DB) compileQuery(q *plan.Query) (*plan.Plan, error) {
	p, err := plan.Build(db.cat, q)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(&db.optCtx, p, db.optRules)
}

// compileStatement resolves a parsed statement through the plan cache,
// compiling on miss. The bool reports a cache hit.
func (db *DB) compileStatement(st *sqlparse.Statement) (*compiled, bool, error) {
	if c, ok := db.plans.Get(st.Normalized); ok {
		return c, true, nil
	}
	p, err := db.compileQuery(st.Query)
	if err != nil {
		return nil, false, err
	}
	c := &compiled{query: st.Query, plan: p}
	db.plans.Put(st.Normalized, c)
	return c, false, nil
}

// substSpec returns the query specification with the execution's
// argument values substituted into its WHERE clause (a shallow copy;
// the cached spec is never modified). Algorithm 1 reads the resulting
// predicates to enumerate the derived-metadata windows the execution
// touches.
func substSpec(spec *plan.Query, args []*expr.Const) (*plan.Query, error) {
	if len(args) == 0 || !expr.HasParams(spec.Where) {
		return spec, nil
	}
	w, err := expr.SubstParams(spec.Where, args)
	if err != nil {
		return nil, err
	}
	qc := *spec
	qc.Where = w
	return &qc, nil
}

// prepareDMd runs Algorithm 1 for a compiled statement: the derived
// metadata the execution needs is made available before it starts,
// enumerated from the argument-substituted predicates.
func (db *DB) prepareDMd(c *compiled, args []*expr.Const) (dmd.Stats, error) {
	spec, err := substSpec(c.query, args)
	if err != nil {
		return dmd.Stats{}, err
	}
	return db.dmd.Prepare(c.plan, spec)
}

// execCompiled runs a compiled statement: Algorithm 1 (derived-metadata
// preparation) against the argument-substituted predicates, then the
// two-stage executor, every stage recorded on prof. With a sink the
// result batches reach it incrementally and the returned Result carries
// an empty relation (schema, stats and provenance only). EXPLAIN
// ANALYZE (analyze) runs the query without the sink and returns its
// profile as plan rows, streamed to the sink if there is one.
func (db *DB) execCompiled(ctx context.Context, c *compiled, args []*expr.Const, sink StreamSink, analyze bool, prof *exec.Profile) (*Result, error) {
	dst, err := db.prepareDMd(c, args)
	if err != nil {
		return nil, err
	}
	prof.End(exec.StageDMd)
	o := exec.Options{Params: args, Sink: sink, Profile: prof}
	if analyze {
		o.Sink = nil
	}
	res, err := exec.Execute(ctx, db.env, c.plan, o)
	if err != nil {
		return nil, err
	}
	start, end := prof.Span(exec.StageCompile)
	out := &Result{Result: res, QueryType: c.plan.Type(), DMd: dst, Plan: c.plan, Compile: end - start}
	prof.End(exec.StageAssemble)
	if !analyze {
		return out, nil
	}
	out.Release()
	rows := planRows(renderAnalyze(out))
	out.Names, out.Kinds, out.Rel = rows.Names, rows.Kinds, rows.Rel
	return out, streamOut(out, sink)
}

// Query parses, prepares (Algorithm 1) and executes one SQL statement.
// Repeated statements differing only in literals share one compiled
// plan through the plan cache (the parser normalizes literals into
// parameters).
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query with cancellation: the executor aborts between
// batches and before chunk ingestions once ctx is done.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.QueryArgsContext(ctx, sql)
}

// QueryArgs executes a statement with `?` parameter markers bound to
// args (int/int64/float64/string/bool/time.Time).
func (db *DB) QueryArgs(sql string, args ...any) (*Result, error) {
	return db.QueryArgsContext(context.Background(), sql, args...)
}

// QueryArgsContext is QueryArgs with cancellation. Statements without
// explicit markers take no args (their literals are auto-parameterized
// internally); an EXPLAIN statement returns the optimized plan and the
// applied-rule log as rows instead of executing, and EXPLAIN ANALYZE
// executes, then returns them annotated with the query's profile.
func (db *DB) QueryArgsContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return db.query(ctx, sql, nil, args)
}

// query is the one parse → bind → compile → execute path; a nil sink
// materializes the result.
func (db *DB) query(ctx context.Context, sql string, sink StreamSink, args []any) (*Result, error) {
	prof := exec.NewProfile()
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	if st.Explain && !st.Analyze {
		// EXPLAIN only compiles — argument values are never used, so
		// none are required (any supplied are ignored).
		c, hit, err := db.compileStatement(st)
		if err != nil {
			return nil, err
		}
		res := explainResult(c.plan)
		res.Compile, res.PlanCacheHit = prof.End(exec.StageCompile), hit
		return res, streamOut(res, sink)
	}
	vals, err := statementArgs(st, args)
	if err != nil {
		return nil, err
	}
	c, hit, err := db.compileStatement(st)
	if err != nil {
		return nil, err
	}
	prof.End(exec.StageCompile)
	res, err := db.execCompiled(ctx, c, vals, sink, st.Analyze, prof)
	if err != nil {
		return nil, err
	}
	res.PlanCacheHit = hit
	return res, nil
}

// StreamSink receives the batches of a streaming query in result
// order; see physical.StreamSink for the lifetime contract (rows must
// be consumed before Push returns; returning ErrStopStream ends the
// query early without error).
type StreamSink = physical.StreamSink

// SchemaSink is a StreamSink that also wants the output schema before
// the first batch (wire encoders writing a header); see
// physical.SchemaSink.
type SchemaSink = physical.SchemaSink

// ErrStopStream is returned by a StreamSink to end a streaming query
// early: the remaining scan work is cancelled and the query reports
// success.
var ErrStopStream = physical.ErrStopStream

// QueryStream parses, prepares and executes one SQL statement with
// streaming result delivery: batches reach sink as they are produced,
// only pipeline breakers (sort, aggregation, join build) materialize,
// and the query's memory footprint is independent of the result size.
// The returned Result carries the schema, stats and plan provenance
// with an empty relation. An EXPLAIN statement streams its plan rows
// through the sink like any other result.
func (db *DB) QueryStream(ctx context.Context, sql string, sink StreamSink, args ...any) (*Result, error) {
	return db.query(ctx, sql, sink, args)
}

// streamOut pushes an already-materialized result's batches through a
// sink (the EXPLAIN path, whose rows exist before streaming starts)
// and leaves the result empty; a nil sink leaves the result as it is.
// A sink stop simply drops the remainder.
func streamOut(res *Result, sink StreamSink) error {
	if sink == nil {
		return nil
	}
	if ss, ok := sink.(physical.SchemaSink); ok {
		ss.SetSchema(res.Names, res.Kinds)
	}
	for _, b := range res.Rel.TakeBatches() {
		if err := sink.Push(b); err != nil {
			if err == ErrStopStream {
				return nil
			}
			return err
		}
	}
	return nil
}

// statementArgs reconciles caller-supplied arguments with the parsed
// statement: explicit markers require exactly NumParams values;
// auto-parameterized statements carry their own literal values and
// accept none.
func statementArgs(st *sqlparse.Statement, args []any) ([]*expr.Const, error) {
	if st.Args != nil {
		if len(args) > 0 {
			return nil, fmt.Errorf("engine: statement has no ? markers but %d argument(s) given", len(args))
		}
		return st.Args, nil
	}
	if len(args) != st.NumParams {
		return nil, fmt.Errorf("engine: statement needs %d argument(s), got %d", st.NumParams, len(args))
	}
	return convertArgs(args)
}

// convertArgs turns Go values into expression constants.
func convertArgs(args []any) ([]*expr.Const, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]*expr.Const, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int:
			out[i] = expr.Int(int64(v))
		case int64:
			out[i] = expr.Int(v)
		case float64:
			out[i] = expr.Float(v)
		case string:
			out[i] = expr.Str(v)
		case bool:
			out[i] = expr.Bool(v)
		case time.Time:
			out[i] = expr.TimeVal(v)
		case *expr.Const:
			out[i] = v
		default:
			return nil, fmt.Errorf("engine: unsupported argument %d type %T", i+1, a)
		}
	}
	return out, nil
}

// Stmt is a prepared statement: parsed, planned and optimized once,
// executable any number of times (concurrently) with per-execution
// arguments. A cache hit on the same normalized statement shares the
// compiled plan.
type Stmt struct {
	db *DB
	c  *compiled
	st *sqlparse.Statement
}

// Prepare compiles a statement through the plan cache and returns the
// reusable handle. Executing it performs zero parse, plan or optimizer
// work.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	c, _, err := db.compileStatement(st)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, c: c, st: st}, nil
}

// Normalized returns the canonical statement text (the plan-cache key).
func (s *Stmt) Normalized() string { return s.st.Normalized }

// NumParams reports how many arguments Query expects.
func (s *Stmt) NumParams() int { return s.st.NumParams }

// Query executes the prepared statement. Statements prepared from
// literal SQL (auto-parameterized) may be called with no arguments to
// reuse the original literals, or with fresh values for every
// parameter.
func (s *Stmt) Query(args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Result, error) {
	return s.query(ctx, nil, args)
}

// QueryStream executes the prepared statement with streaming result
// delivery; see DB.QueryStream for the sink contract. The zero-compile
// property of prepared statements holds: streaming reuses the cached
// plan untouched.
func (s *Stmt) QueryStream(ctx context.Context, sink StreamSink, args ...any) (*Result, error) {
	return s.query(ctx, sink, args)
}

// query binds the arguments and executes the compiled statement; a nil
// sink materializes the result.
func (s *Stmt) query(ctx context.Context, sink StreamSink, args []any) (*Result, error) {
	if s.st.Explain && !s.st.Analyze {
		res := explainResult(s.c.plan)
		return res, streamOut(res, sink)
	}
	var vals []*expr.Const
	if len(args) == 0 && s.st.Args != nil {
		vals = s.st.Args
	} else {
		if len(args) != s.st.NumParams {
			return nil, fmt.Errorf("engine: prepared statement needs %d argument(s), got %d", s.st.NumParams, len(args))
		}
		var err error
		vals, err = convertArgs(args)
		if err != nil {
			return nil, err
		}
	}
	return s.db.execCompiled(ctx, s.c, vals, sink, s.st.Analyze, exec.NewProfile())
}

// Run executes a programmatically constructed query specification
// (compiled outside the plan cache — there is no statement text to key
// it by).
func (db *DB) Run(q *plan.Query) (*Result, error) {
	return db.RunContext(context.Background(), q)
}

// RunContext is Run with cancellation.
func (db *DB) RunContext(ctx context.Context, q *plan.Query) (*Result, error) {
	prof := exec.NewProfile()
	p, err := db.compileQuery(q)
	if err != nil {
		return nil, err
	}
	prof.End(exec.StageCompile)
	return db.execCompiled(ctx, &compiled{query: q, plan: p}, nil, nil, false, prof)
}

// Catalog exposes the warehouse catalog.
func (db *DB) Catalog() *table.Catalog { return db.cat }

// Report returns the registration report (loading costs and sizes).
func (db *DB) Report() registrar.Report {
	db.fillSizes() // sizes may have grown (lazy ingestion, DMd)
	db.reportMu.Lock()
	defer db.reportMu.Unlock()
	return db.report
}

// Approach returns the loading approach the database was opened with.
func (db *DB) Approach() registrar.Approach { return db.report.Approach }

// CacheStats reports recycler activity (zero evictions, bytes and
// chunks when uncached).
func (db *DB) CacheStats() cache.Stats { return db.chunks.CacheStats() }

// ChunkStats reports the chunk store's gauges: residency and the reuse
// of chunk memory.
func (db *DB) ChunkStats() chunkstore.Stats { return db.chunks.Stats() }

// ClearCache evicts all cached chunks: a cold start, as after a server
// restart. It is a no-op for eager approaches.
func (db *DB) ClearCache() { db.chunks.Clear() }

// MaterializedWindows reports how many DMd windows are materialized.
func (db *DB) MaterializedWindows() int { return db.dmd.MaterializedCount() }

// WarmUp runs a query once to populate caches (for "hot" measurements).
func (db *DB) WarmUp(sql string, runs int) error {
	for i := 0; i < runs; i++ {
		res, err := db.Query(sql)
		if err != nil {
			return err
		}
		res.Release()
	}
	return nil
}

// renderExplain is the EXPLAIN text: header, the plan tree with each
// operator line annotated by annot (nil: none), rule log.
func renderExplain(p *plan.Plan, annot func(plan.Node) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- type: T%d  two-stage: %t", p.Type(), p.TwoStage)
	if p.NumParams > 0 {
		fmt.Fprintf(&sb, "  params: %d", p.NumParams)
	}
	sb.WriteByte('\n')
	sb.WriteString(plan.RenderAnnotated(p.Root, p.Qf, annot))
	for _, r := range p.RuleLog {
		sb.WriteString("-- rule ")
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderAnalyze is the EXPLAIN ANALYZE text of an executed query: the
// EXPLAIN text with each operator's rows and batches per stage and each
// pipeline breaker's time and self time, then the stage spans and the
// chunk counts.
func renderAnalyze(res *Result) string {
	prof := res.Profile
	text := renderExplain(res.Plan, func(n plan.Node) string {
		var parts []string
		for _, stage1 := range []bool{true, false} {
			if st, self, ok := prof.Op(n, stage1); ok && st.Timed {
				parts = append(parts, fmt.Sprintf("rows=%d batches=%d time=%v self=%v",
					st.Rows, st.Batches, st.Time.Round(time.Microsecond), self.Round(time.Microsecond)))
			} else if ok {
				parts = append(parts, fmt.Sprintf("rows=%d batches=%d", st.Rows, st.Batches))
			}
		}
		if len(parts) == 2 {
			return "stage1: " + parts[0] + "; stage2: " + parts[1]
		}
		return strings.Join(parts, "")
	})
	var sb strings.Builder
	sb.WriteString(text)
	sb.WriteString("-- stages:")
	for s := exec.Stage(0); s < exec.NumStages; s++ {
		start, end := prof.Span(s)
		fmt.Fprintf(&sb, " %v=%v", s, (end - start).Round(time.Microsecond))
	}
	st := res.Stats
	fmt.Fprintf(&sb, "  chunks: %d selected, %d loaded, %d cached\n", st.ChunksSelected, st.ChunksLoaded, st.CacheHits)
	return sb.String()
}

// planRows is EXPLAIN text as a one-column result, so the statement
// flows through every client path (CLI, HTTP) unchanged.
func planRows(text string) *exec.Result {
	rel := storage.NewRelation()
	rel.Append(storage.NewBatch(storage.NewStringColumn(strings.Split(strings.TrimRight(text, "\n"), "\n"))))
	return &exec.Result{Names: []string{"plan"}, Kinds: []storage.Kind{storage.KindString}, Rel: rel}
}

// explainResult is the EXPLAIN result of a compiled plan.
func explainResult(p *plan.Plan) *Result {
	return &Result{Result: planRows(renderExplain(p, nil)), QueryType: p.Type(), Plan: p}
}

// PlanCacheStats reports compiled-plan cache activity.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.Stats() }
