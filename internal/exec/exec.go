// Package exec implements the two-stage query executor. Stage one
// evaluates the metadata branch Qf of a plan to identify the chunks of
// actual data the query needs; the run-time optimizer then rewrites
// every actual-data scan into a union of cache-scans (for resident
// chunks) and chunk-accesses (ingesting missing chunks through the
// chunk loader, in parallel); stage two evaluates the remainder Qs.
//
// The same executor also serves the eager loading variants, which skip
// lazy ingestion: ModeEagerFull scans the monolithically loaded data,
// ModeEagerIndexed exploits the per-chunk clustering built by the
// indexing investment to prune chunks with the stage-one result.
package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/chunkstore"
	"sommelier/internal/expr"
	"sommelier/internal/fault"
	"sommelier/internal/index"
	"sommelier/internal/physical"
	"sommelier/internal/plan"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Mode selects how actual-data scans are evaluated.
type Mode uint8

// Execution modes.
const (
	// ModeLazy ingests missing chunks during query evaluation (the
	// paper's contribution).
	ModeLazy Mode = iota
	// ModeEagerFull scans all resident actual data; the eager_plain
	// and eager_csv variants, whose data is one monolithic chunk.
	ModeEagerFull
	// ModeEagerIndexed prunes resident chunks with the stage-one
	// result; the eager_index / eager_dmd variants, whose indexing
	// investment clustered the data by chunk.
	ModeEagerIndexed
)

// MetaIndex is a hash index over some columns of a metadata table,
// together with the flattened snapshot it indexes. The executor uses it
// as the index-scan access path when a scan's filter pins every indexed
// column with an equality constant.
type MetaIndex struct {
	Cols []string // unqualified column names, in index key order
	Ix   *index.HashIndex
	Data *storage.Batch
}

// Env is the execution environment of one database instance. One Env
// may serve any number of concurrent Execute calls: a query scans each
// chunk through a handle from its table's chunk store
// (table.Table.Chunks), which shares one load per missing chunk among
// the queries selecting it. ModeLazy needs the stores configured with
// a loader. An Env must not be copied after first use.
type Env struct {
	Catalog *table.Catalog
	Mode    Mode
	// MetaIndexes holds the index-scan accelerators per metadata
	// table, built by the eager_index investment.
	MetaIndexes map[string][]MetaIndex
	// MaxParallel bounds a query's chunk-ingestion fan-out: how many
	// of its missing chunks load concurrently. Stage 2 always runs on
	// the query's own goroutine. 0 means adaptive: GOMAXPROCS shared
	// evenly across the queries in flight, so a lone query loads on
	// every core while a 16-client burst degrades to one load at a time
	// per query instead of thrashing 16×GOMAXPROCS decode goroutines. 1
	// loads serially (the parallel-load ablation); any other value is
	// taken literally per query.
	MaxParallel int
	// MaxQueryBytes caps the bytes a single query may materialize into
	// its own buffers (drained results, sort input, join build side,
	// streaming run-ahead); 0 means unlimited. Exceeding it aborts the
	// query with a *storage.QuotaError.
	MaxQueryBytes int64
	// Governor, when non-nil, is the process-wide memory pool every
	// per-query quota reserves from: the bound on the *sum* of
	// concurrent queries' materialized bytes, which per-query ceilings
	// alone cannot provide. A query that cannot reserve within the
	// governor's wait fails with a *storage.GovernorError (backpressure,
	// not data loss — the server answers 429 retry-later).
	Governor *storage.Governor
	// Degraded is the environment's default degraded-mode setting:
	// when true, a query whose chunk ingestion fails with a Degradable
	// error proceeds over the available chunks and records a Warning
	// per skipped chunk, instead of failing outright. Per-query
	// override: WithDegraded.
	Degraded bool
	// Faults is the fault-injection schedule of stage two (point
	// exec.morsel); nil injects nothing. The ingestion points belong to
	// the chunk stores' configuration.
	Faults *fault.Injector

	// inflight counts queries currently executing, for the adaptive
	// ingestion fan-out.
	inflight atomic.Int32
}

// dop resolves the effective per-query ingestion fan-out given the
// current in-flight query count.
func (env *Env) dop() int {
	if env.MaxParallel == 1 {
		return 1
	}
	limit := env.MaxParallel
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
		inflight := int(env.inflight.Load())
		if inflight > 1 {
			limit /= inflight
		}
	}
	if limit < 1 {
		return 1
	}
	return limit
}

// Stats reports what one query execution did.
type Stats struct {
	Stage1 time.Duration // metadata branch evaluation
	Load   time.Duration // chunk ingestion (lazy only)
	Stage2 time.Duration // remainder evaluation
	// ChunksSelected is the number of chunks stage one identified;
	// ChunksLoaded of those were ingested, CacheHits were resident.
	ChunksSelected, ChunksLoaded, CacheHits int
	// ChunksPromoted counts the ChunksLoaded subset served by decoding
	// a disk-tier block instead of fetching from the archive.
	ChunksPromoted int
	RowsLoaded     int64
	// SampleFraction is 1 for exact answers; under approximative
	// answering it is the fraction of selected chunks actually
	// evaluated (COUNT/SUM-style aggregates scale by its inverse).
	SampleFraction float64
	// IndexScans counts metadata accesses served through the
	// index-scan access path instead of a full scan.
	IndexScans int
	// ChunksSkipped counts selected chunks a degraded-mode query
	// proceeded without (one Result.Warnings entry each).
	ChunksSkipped int
}

// Total is the end-to-end execution time.
func (s Stats) Total() time.Duration { return s.Stage1 + s.Load + s.Stage2 }

// Result is a completed query.
type Result struct {
	Names []string
	Kinds []storage.Kind
	Rel   *storage.Relation
	Stats Stats
	// Warnings is non-empty only for degraded results: one entry per
	// chunk the query proceeded without. Aggregates and row sets are
	// correct over the surviving chunk set.
	Warnings []Warning
	// Profile is what the execution did: the substance of EXPLAIN ANALYZE.
	Profile *Profile
	// chunks holds the scanned chunks until Release: Rel may alias them.
	chunks []chunkstore.Handle
}

// Warning records one chunk a degraded-mode query skipped.
type Warning struct {
	Table  string `json:"table"`
	Chunk  int64  `json:"chunk"`
	Rows   int64  `json:"rows,omitempty"`  // rows lost, when known (0 = unknown)
	Bytes  int64  `json:"bytes,omitempty"` // bytes lost, when known
	Reason string `json:"reason"`
}

// degradedKey carries the per-query degraded-mode override.
type degradedKey struct{}

// WithDegraded overrides the environment's degraded-mode default for
// queries run under the returned context: true lets chunk-ingestion
// failures degrade to partial results with warnings, false restores
// strict fail-fast behavior.
func WithDegraded(ctx context.Context, degraded bool) context.Context {
	return context.WithValue(ctx, degradedKey{}, degraded)
}

// degradedFrom reads the per-query override.
func degradedFrom(ctx context.Context) (bool, bool) {
	v, ok := ctx.Value(degradedKey{}).(bool)
	return v, ok
}

// degradable reports whether an error self-identifies as an
// availability (not correctness) failure: registrar.ChunkError,
// registrar.CircuitOpenError and fault.Error all do, via the
// Degradable marker method. The interface is structural so exec does
// not import registrar.
func degradable(err error) bool {
	var d interface{ Degradable() bool }
	return errors.As(err, &d) && d.Degradable()
}

// Rows is shorthand for the result cardinality.
func (r *Result) Rows() int { return r.Rel.Rows() }

// Release returns the handles of the chunks the result's rows may
// alias, so the chunk store can reuse their memory, and empties the
// result so a stray later read sees no rows. Call it when the rows are
// no longer referenced (after rendering, copying out, or comparing).
// Releasing is optional — an unreleased result is simply garbage
// collected, the chunk memory it aliases with it — and never keeps a
// chunk resident.
func (r *Result) Release() {
	if r == nil {
		return
	}
	if r.Rel != nil {
		r.Rel.TakeBatches()
	}
	chunkstore.ReleaseAll(r.chunks)
	r.chunks = nil
}

// Options carries the per-execution inputs of Execute; the zero value
// runs a parameterless plan into a materialized result.
type Options struct {
	// Params are the statement arguments bound to the plan's parameter
	// placeholders. The plan is not modified: parameters are substituted
	// into per-execution expression clones, so one cached plan serves any
	// number of concurrent executions with different arguments.
	Params []*expr.Const
	// Sink, when non-nil, receives the result rows incrementally instead
	// of the Result materializing them: only pipeline breakers (sort,
	// aggregation, the join build side) buffer rows, so the query's
	// memory footprint is independent of its result size and the first
	// batch reaches the sink as soon as it is produced. The returned
	// Result then carries the schema and stats with an empty relation.
	//
	// Lifetime follows physical.StreamSink: the chunk data a pushed
	// batch may alias is held only until Execute returns — sinks that
	// keep rows longer must copy or serialize them inside Push. A sink
	// returning physical.ErrStopStream ends the query early without
	// error; the drain stops pulling, so LIMIT-style consumers stop the
	// scan instead of discarding it.
	Sink physical.StreamSink
	// Profile records the execution's stages, after those the caller
	// already ended on it (compile, Algorithm 1); nil starts a new one.
	Profile *Profile
}

// Execute runs a compiled plan in the environment, honouring
// cancellation: the executor checks the context between batches and
// before every chunk ingestion, so long-running lazy loads abort
// promptly.
func Execute(ctx context.Context, env *Env, p *plan.Plan, o Options) (*Result, error) {
	ex := &executor{ctx: ctx, env: env, plan: p, params: o.Params, sink: o.Sink, prof: o.Profile}
	return ex.run()
}

type executor struct {
	ctx    context.Context
	env    *Env
	plan   *plan.Plan
	params []*expr.Const
	prof   *Profile
	// sink, when set, receives the stage-two rows in place of the
	// Result's relation.
	sink physical.StreamSink
	// quota is the per-query memory ceiling (nil = unlimited unless
	// the Env carries a global Governor), instantiated from
	// Env.MaxQueryBytes at the start of run and Closed — returning any
	// outstanding global reservation — however the query ends.
	quota *storage.Quota
	// drain configures the query's drains: cancellation between
	// batches, the watchdog and fault point once per top-level drain
	// (breakers ignore it) and the memory ceiling.
	drain physical.DrainOpts

	qfRel   *storage.Relation
	qfNames []string
	qfKinds []storage.Kind

	// selected chunk IDs per actual-data table, from stage one, and the
	// segments of each that stage two reads (see segmentCols).
	selected map[string][]int64
	segs     map[string]map[int64][]int64
	// chunks holds a handle on every chunk stage two scans, and rels
	// their relations per table in chunk order; the handles go when
	// Execute returns, or move into a collected Result.
	chunks []chunkstore.Handle
	rels   map[string][]*storage.Relation

	// par is the query's chunk-ingestion fan-out, fixed at the start of
	// run from the environment's adaptive split.
	par int

	// stats and prof are confined to the query's own goroutine: the
	// ingestion workers communicate through the per-chunk results slice
	// joined before any counter is updated, so accumulation is
	// race-free even with many concurrent queries per Env.
	stats Stats

	// degraded is the query's effective degraded-mode setting (the Env
	// default, overridable per query via WithDegraded); warnings
	// accumulates one entry per chunk skipped under it.
	degraded bool
	warnings []Warning
}

// run executes the compiled plan, normalizing any deadline-caused
// failure — wherever it surfaced: the morsel hook, a drain pull, a
// breaker build, chunk ingestion — to a typed *DeadlineError.
func (ex *executor) run() (*Result, error) {
	if ex.prof == nil {
		ex.prof = NewProfile()
	}
	res, err := ex.exec()
	if err != nil {
		return nil, ex.deadlineErr(err)
	}
	return res, nil
}

func (ex *executor) exec() (*Result, error) {
	if n := ex.plan.NumParams; n > len(ex.params) {
		return nil, fmt.Errorf("exec: plan needs %d argument(s), got %d", n, len(ex.params))
	}
	ex.env.inflight.Add(1)
	defer ex.env.inflight.Add(-1)
	ex.par = ex.env.dop()
	ex.quota = storage.NewGovernedQuota(ex.ctx, ex.env.MaxQueryBytes, ex.env.Governor)
	ex.drain = physical.DrainOpts{Check: ex.ctx.Err, Morsel: ex.morselHook(), Quota: ex.quota}
	// However the query ends — success, error, watchdog kill, or a
	// streaming client gone mid-result — its global memory reservation
	// goes back to the governor here.
	defer ex.quota.Close()
	ex.degraded = ex.env.Degraded
	if v, ok := degradedFrom(ex.ctx); ok {
		ex.degraded = v
	}
	// However the query ends, its chunk handles are released — unless
	// a collected Result took them over.
	defer func() { chunkstore.ReleaseAll(ex.chunks) }()
	ex.stats.SampleFraction = 1
	needStage1 := ex.plan.Qf != nil && ex.plan.TwoStage && ex.env.Mode != ModeEagerFull
	if needStage1 {
		op, err := ex.build(ex.plan.Qf, true)
		if err != nil {
			return nil, err
		}
		rel, err := physical.Collect(op, ex.drain)
		if err != nil {
			return nil, fmt.Errorf("exec: stage one: %w", err)
		}
		ex.qfRel = rel
		ex.qfNames = ex.plan.Qf.Names()
		ex.qfKinds = ex.plan.Qf.Kinds()
		ex.stats.Stage1 = ex.prof.End(StageStage1)
		if err := ex.selectChunks(); err != nil {
			return nil, err
		}
		ex.applySampling()
		ex.prof.End(StageSelect)
	}
	if ex.plan.TwoStage {
		if err := ex.acquireChunks(); err != nil {
			return nil, err
		}
		if load := ex.prof.End(StageLoad); ex.env.Mode == ModeLazy {
			ex.stats.Load = load
		}
	}
	op, err := ex.build(ex.plan.Root, false)
	if err != nil {
		return nil, err
	}
	// Without a sink the rows collect into the Result, whose owner
	// Releases them — and with them the chunk handles, since collected
	// rows may alias chunk columns. With a sink they flow to it as they
	// are produced and nothing is materialized here; the chunk handles
	// drop when this function returns, which is why sinks must consume
	// pushed rows before Push returns.
	var rel *storage.Relation
	if ex.sink == nil {
		rel, err = physical.Collect(op, ex.drain)
	} else {
		if ss, ok := ex.sink.(physical.SchemaSink); ok {
			ss.SetSchema(ex.plan.Root.Names(), ex.plan.Root.Kinds())
		}
		rel = storage.NewRelation()
		err = physical.Drain(op, ex.sink, ex.drain)
	}
	if err != nil {
		return nil, fmt.Errorf("exec: stage two: %w", err)
	}
	ex.stats.Stage2 = ex.prof.End(StageStage2)
	res := &Result{
		Names:    ex.plan.Root.Names(),
		Kinds:    ex.plan.Root.Kinds(),
		Rel:      rel,
		Stats:    ex.stats,
		Warnings: ex.warnings,
		Profile:  ex.prof,
	}
	if ex.sink == nil {
		res.chunks, ex.chunks = ex.chunks, nil
	}
	return res, nil
}

// selectChunks extracts, per actual-data table, the distinct chunk IDs
// from the stage-one result — result-scan(Qf) as a set of files — and,
// where segmentCols finds the columns, the segments of each it names.
func (ex *executor) selectChunks() error {
	ex.selected = make(map[string][]int64)
	ex.segs = make(map[string]map[int64][]int64)
	flat := ex.qfRel.Flatten()
	for _, tn := range ex.plan.ADTables {
		t, ok := ex.env.Catalog.Table(tn)
		if !ok {
			return fmt.Errorf("exec: unknown actual-data table %q", tn)
		}
		col, segCol := ex.segmentCols(t)
		for i, n := range ex.qfNames {
			if col < 0 && strings.HasSuffix(n, "."+t.ChunkKey) {
				col = i
			}
		}
		if col < 0 {
			// No metadata column constrains this table: worst case,
			// all chunks are required.
			ex.selected[tn] = t.Chunks().AllIDs()
			ex.stats.ChunksSelected += len(ex.selected[tn])
			continue
		}
		// The distinct (chunk, segment) pairs of the Qf rows, sorted, so
		// the chunk IDs and each chunk's segments come off them ascending.
		// A set finds them: windowdataview's Qf repeats each pair once per
		// window the segment overlaps (one or two, under the band
		// rangeinfer puts on its S ⋈ H join; once per window of the
		// station without it).
		type pair struct{ chunk, seg int64 }
		seen, pairs := make(map[pair]bool), []pair(nil)
		if flat.Len() > 0 {
			chunks, segIDs := storage.Int64s(flat.Cols[col]), []int64(nil)
			if segCol >= 0 {
				segIDs = storage.Int64s(flat.Cols[segCol])
			}
			for i, v := range chunks {
				p := pair{chunk: v}
				if segIDs != nil {
					p.seg = segIDs[i]
				}
				if !seen[p] {
					seen[p] = true
					pairs = append(pairs, p)
				}
			}
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			return cmp.Or(cmp.Compare(a.chunk, b.chunk), cmp.Compare(a.seg, b.seg))
		})
		var ids []int64
		segs := make(map[int64][]int64)
		for _, p := range pairs {
			if len(ids) == 0 || ids[len(ids)-1] != p.chunk {
				ids = append(ids, p.chunk)
			}
			segs[p.chunk] = append(segs[p.chunk], p.seg)
		}
		ex.selected[tn] = ids
		if segCol >= 0 {
			ex.segs[tn] = segs
		}
		ex.stats.ChunksSelected += len(ids)
	}
	return nil
}

// segmentCols returns the Qf columns that the stage-two join consuming
// t's one scan equates with t's chunk and segment keys — the
// (S.file_id, S.segment_id) pairs of the paper's metadata branch, as the
// dataview and windowdataview joins match them — so that rows of other
// segments can never reach the result. Otherwise it returns -1, -1:
// every chunk loads whole.
func (ex *executor) segmentCols(t *table.Table) (fileCol, segCol int) {
	if t.SegmentKey == "" {
		return -1, -1
	}
	chunkKey, segKey := t.Name+"."+t.ChunkKey, t.Name+"."+t.SegmentKey
	fileCol, segCol = -1, -1
	scans := 0
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if n == ex.plan.Qf {
			return
		}
		switch n := n.(type) {
		case *plan.Scan:
			if n.Table == t.Name {
				scans++
			}
		case *plan.Join:
			other := n.R
			if n.R == ex.plan.Qf {
				other = n.L
			} else if n.L != ex.plan.Qf {
				break
			}
			if sc, ok := other.(*plan.Scan); !ok || sc.Table != t.Name {
				break
			}
			for _, p := range n.Preds {
				key, i := p.Left, indexOf(ex.qfNames, p.Right)
				if i < 0 {
					key, i = p.Right, indexOf(ex.qfNames, p.Left)
				}
				if i < 0 || ex.qfKinds[i] != storage.KindInt64 {
					continue
				}
				switch key {
				case chunkKey:
					fileCol = i
				case segKey:
					segCol = i
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(ex.plan.Root)
	if scans != 1 || fileCol < 0 || segCol < 0 {
		return -1, -1
	}
	return fileCol, segCol
}

// applySampling implements the paper's §VIII approximative query
// answering: when the plan asks for a p% sample, only ⌈p%⌉ of each
// table's selected chunks are evaluated. The subset is chosen by a
// deterministic per-chunk hash so repeated runs of the same query see
// the same sample (and so the sample is uncorrelated with chunk order).
func (ex *executor) applySampling() {
	pct := ex.plan.SamplePct
	if pct <= 0 || pct >= 100 || ex.selected == nil {
		return
	}
	var total, kept int
	for tn, ids := range ex.selected {
		if len(ids) == 0 {
			continue
		}
		n := (len(ids)*int(pct*100) + 9999) / 10000 // ceil(len × pct/100)
		if n < 1 {
			n = 1
		}
		sorted := append([]int64{}, ids...)
		sort.Slice(sorted, func(i, j int) bool {
			return chunkHash(sorted[i]) < chunkHash(sorted[j])
		})
		sample := sorted[:n]
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		total += len(ids)
		kept += n
		ex.selected[tn] = sample
	}
	if total > 0 {
		ex.stats.SampleFraction = float64(kept) / float64(total)
		ex.stats.ChunksSelected = kept
	}
}

// chunkHash is a fixed 64-bit mix for deterministic sampling.
func chunkHash(id int64) uint64 {
	x := uint64(id) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// acquireChunks takes a handle on every chunk stage two scans, per
// actual-data table and in chunk order: the stage-one selection, or
// every chunk when there is none — in lazy mode the worst case the rule
// set tries to avoid (the paper's "no alternative to loading all AD").
func (ex *executor) acquireChunks() error {
	ex.rels = make(map[string][]*storage.Relation, len(ex.plan.ADTables))
	for _, tn := range ex.plan.ADTables {
		t, ok := ex.env.Catalog.Table(tn)
		if !ok {
			return fmt.Errorf("exec: unknown actual-data table %q", tn)
		}
		ids := ex.selected[tn]
		if ex.selected == nil {
			if ids = t.Chunks().AllIDs(); ex.env.Mode == ModeLazy {
				ex.stats.ChunksSelected += len(ids)
			}
		}
		if err := ex.ingest(tn, t.Chunks(), ids, ex.segs[tn]); err != nil {
			return err
		}
	}
	return nil
}

// ingest acquires one table's chunks, each holding at least its
// selected segments (segs; absent: every one). Resident chunks holding
// them are taken on the spot. In lazy mode the others are loaded in
// parallel (the paper's static parallelization: the degree of
// parallelism is the number of selected chunks, bounded by the query's
// fan-out), concurrent queries selecting the same chunk sharing
// one load through the store; eager data is all resident, so there a
// missing chunk is one the clustered index pruned.
func (ex *executor) ingest(tn string, store *chunkstore.Store, ids []int64, segs map[int64][]int64) error {
	lazy := ex.env.Mode == ModeLazy
	hs := make([]chunkstore.Handle, len(ids))
	errs := make([]error, len(ids))
	var missing []int
	for i, id := range ids {
		var ok bool
		if hs[i], ok = store.TryAcquire(id, segs[id]); !ok && lazy {
			missing = append(missing, i)
		}
	}
	load := func(i int) { hs[i], errs[i] = store.Acquire(ex.ctx, ids[i], segs[ids[i]]) }
	// The fan-out is adaptive, so a 16-client cold burst does not spawn
	// 16×GOMAXPROCS decode goroutines. A fan-out of one — a point
	// query's single missing chunk, a serial load — loads on the
	// query's own goroutine: a hand-off to another thread buys no
	// parallelism and costs a wake-up on a busy box.
	if par := min(ex.par, len(missing)); par <= 1 {
		for _, i := range missing {
			load(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for _, i := range missing {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				load(i)
			}(i)
		}
		wg.Wait()
	}
	// Keep every handle the loads took before failing the query, so the
	// deferred release sees them all. In degraded mode an unavailable
	// chunk (a Degradable error: exhausted retries, quarantine, open
	// breaker, injected fault) is skipped with a warning instead of
	// failing the query; non-degradable errors and caller cancellation
	// stay fatal either way.
	rels := make([]*storage.Relation, 0, len(ids))
	var firstErr error
	for i, id := range ids {
		if err := errs[i]; err != nil {
			if ex.degraded && ex.ctx.Err() == nil && degradable(err) {
				w := Warning{Table: tn, Chunk: id, Reason: err.Error()}
				var fe *chunkstore.FillError
				if errors.As(err, &fe) {
					w.Rows, w.Bytes = fe.Rows, fe.Bytes
				}
				ex.stats.ChunksSkipped++
				ex.warnings = append(ex.warnings, w)
			} else if firstErr == nil {
				firstErr = fmt.Errorf("exec: chunk-access(%s, %d): %w", tn, id, err)
			}
			continue
		}
		h := hs[i]
		if h == (chunkstore.Handle{}) {
			continue
		}
		ex.chunks = append(ex.chunks, h)
		rels = append(rels, h.Rel())
		switch {
		case !lazy:
		case h.Loaded:
			ex.stats.ChunksLoaded++
			if h.Promoted {
				ex.stats.ChunksPromoted++
			}
			ex.stats.RowsLoaded += int64(h.Rel().Rows())
		default:
			// Resident, or delivered by another query's load: a cache hit
			// either way, so that across concurrent queries ChunksLoaded
			// and RowsLoaded sum to the true ingestion volume — each
			// chunk is loaded and counted exactly once, by its leader.
			ex.stats.CacheHits++
		}
	}
	ex.rels[tn] = rels
	return firstErr
}

// rexpr prepares a plan expression for this execution: an expression
// carrying parameter placeholders is substituted with the execution's
// argument values on a fresh clone, leaving the (possibly cached and
// shared) plan untouched. Parameter-free expressions pass through —
// the physical operator constructors clone before binding anyway.
func (ex *executor) rexpr(e expr.Expr) (expr.Expr, error) {
	if e == nil || len(ex.params) == 0 || !expr.HasParams(e) {
		return e, nil
	}
	return expr.SubstParams(e, ex.params)
}

// build constructs the physical operator tree for a plan subtree, each
// node's operator profiled. inStage1 marks that we are compiling Qf
// itself; otherwise an encountered Qf node is replaced by a result-scan
// over the materialized stage-one result.
func (ex *executor) build(n plan.Node, inStage1 bool) (physical.Operator, error) {
	op, err := ex.buildInner(n, inStage1)
	if err != nil {
		return op, err
	}
	// Pipeline breakers drain an input internally, at the query's
	// parallelism, under its cancellation check and memory ceiling.
	if b, ok := op.(physical.Breaker); ok {
		b.SetDrain(ex.drain)
	}
	return ex.prof.add(n, inStage1, op), nil
}

func (ex *executor) buildInner(n plan.Node, inStage1 bool) (physical.Operator, error) {
	if !inStage1 && n == ex.plan.Qf && ex.qfRel != nil {
		return physical.NewRelScan(ex.qfRel, ex.qfNames, ex.qfKinds, nil)
	}
	switch n := n.(type) {
	case *plan.Scan:
		return ex.buildScan(n)
	case *plan.Join:
		l, err := ex.build(n.L, inStage1)
		if err != nil {
			return nil, err
		}
		r, err := ex.build(n.R, inStage1)
		if err != nil {
			return nil, err
		}
		if len(n.Preds) == 0 {
			return physical.NewCrossJoin(l, r), nil
		}
		var lk, rk []int
		for _, p := range n.Preds {
			li, ri := indexOf(l.Names(), p.Left), indexOf(r.Names(), p.Right)
			if li < 0 || ri < 0 {
				// The predicate may be written in the other
				// direction.
				li, ri = indexOf(l.Names(), p.Right), indexOf(r.Names(), p.Left)
			}
			if li < 0 || ri < 0 {
				return nil, fmt.Errorf("exec: join predicate %v unresolvable", p)
			}
			lk = append(lk, li)
			rk = append(rk, ri)
		}
		j, err := physical.NewHashJoinCols(l, r, lk, rk, n.Out)
		if err != nil || n.Band == nil {
			return j, err
		}
		b, all := n.Band, append(slices.Clone(l.Names()), r.Names()...)
		return j, j.SetBand(indexOf(all, b.T), indexOf(all, b.Lo), indexOf(all, b.Hi), int64(b.Slack))
	case *plan.Select:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		pred, err := ex.rexpr(n.Pred)
		if err != nil {
			return nil, err
		}
		return physical.NewFilter(in, pred)
	case *plan.Project:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(n.Cols))
		exprs := make([]expr.Expr, len(n.Cols))
		for i, c := range n.Cols {
			e, err := ex.rexpr(c.Expr)
			if err != nil {
				return nil, err
			}
			names[i], exprs[i] = c.Name, e
		}
		return physical.NewProject(in, names, exprs)
	case *plan.Aggregate:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		var groupCols []int
		for _, g := range n.GroupBy {
			gi := indexOf(in.Names(), g)
			if gi < 0 {
				return nil, fmt.Errorf("exec: group column %q unresolvable", g)
			}
			groupCols = append(groupCols, gi)
		}
		aggs := make([]physical.AggColumn, len(n.Aggs))
		for i, a := range n.Aggs {
			arg, err := ex.rexpr(a.Arg)
			if err != nil {
				return nil, err
			}
			aggs[i] = physical.AggColumn{Func: aggFuncID(a.Func), Arg: arg, Name: a.Name}
		}
		return physical.NewHashAggregate(in, groupCols, aggs)
	case *plan.Sort:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		keys := make([]physical.SortKey, len(n.Keys))
		for i, k := range n.Keys {
			ki := indexOf(in.Names(), k.Col)
			if ki < 0 {
				return nil, fmt.Errorf("exec: sort column %q unresolvable", k.Col)
			}
			keys[i] = physical.SortKey{Col: ki, Desc: k.Desc}
		}
		return physical.NewSort(in, keys)
	case *plan.TopK:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		keys := make([]physical.SortKey, len(n.Keys))
		for i, k := range n.Keys {
			ki := indexOf(in.Names(), k.Col)
			if ki < 0 {
				return nil, fmt.Errorf("exec: top-k column %q unresolvable", k.Col)
			}
			keys[i] = physical.SortKey{Col: ki, Desc: k.Desc}
		}
		return physical.NewTopK(in, keys, n.N)
	case *plan.Limit:
		in, err := ex.build(n.In, inStage1)
		if err != nil {
			return nil, err
		}
		return physical.NewLimit(in, n.N), nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// buildScan realizes the access paths. Metadata tables use a plain
// scan — or the index-scan access path when the optimizer annotated the
// node with a recognized index key; actual-data tables are rewritten
// according to the mode and the stage-one chunk selection (rewrite rule
// (1) of the paper, with the scan predicate pushed into every branch).
// A pruned scan (n.Cols) reads only the referenced columns.
func (ex *executor) buildScan(n *plan.Scan) (physical.Operator, error) {
	t, ok := ex.env.Catalog.Table(n.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", n.Table)
	}
	names, kinds := n.Names(), n.Kinds()
	filter, err := ex.rexpr(n.Filter)
	if err != nil {
		return nil, err
	}
	if t.Class != table.ActualData {
		if op, err := ex.tryIndexScan(n, t, names, kinds); err != nil {
			return nil, err
		} else if op != nil {
			return op, nil
		}
		return physical.NewMultiRelScanCols([]*storage.Relation{t.Data()}, names, kinds, filter, n.Cols)
	}
	rels := ex.rels[n.Table]
	if len(rels) == 0 {
		return physical.NewEmpty(names, kinds), nil
	}
	// The union of cache-scans and chunk-accesses over the selected
	// chunks, collapsed into one scan in chunk order; the selection is
	// pushed down (NewMultiRelScanCols clones and binds the predicate).
	return physical.NewMultiRelScanCols(rels, names, kinds, filter, n.Cols)
}

// tryIndexScan serves a metadata scan through a hash index when the
// optimizer annotated the node with a recognized key (plan.IndexHint)
// and the environment has a matching index. The hint's key operands
// (constants or parameters) are materialized into an index.Key here;
// any mismatch — no such index, a parameter value of the wrong kind —
// falls back to the plain scan path by returning (nil, nil).
func (ex *executor) tryIndexScan(n *plan.Scan, t *table.Table, names []string, kinds []storage.Kind) (physical.Operator, error) {
	hint := n.Index
	if hint == nil || ex.env.MetaIndexes == nil {
		return nil, nil
	}
	var mi *MetaIndex
	for i := range ex.env.MetaIndexes[n.Table] {
		if slices.Equal(ex.env.MetaIndexes[n.Table][i].Cols, hint.Cols) {
			mi = &ex.env.MetaIndexes[n.Table][i]
			break
		}
	}
	if mi == nil {
		return nil, nil
	}
	key, ok, err := ex.materializeKey(hint)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	ex.stats.IndexScans++
	fullNames, fullKinds := t.Schema.QualifiedNames(t.Name), t.Schema.Kinds()
	var op physical.Operator = physical.NewIndexScan(mi.Ix, mi.Data, fullNames, fullKinds, key)
	if hint.Residual != nil {
		pred, err := ex.rexpr(hint.Residual)
		if err != nil {
			return nil, err
		}
		f, err := physical.NewFilter(op, pred)
		if err != nil {
			return nil, err
		}
		op = f
	}
	if n.Cols != nil {
		// Narrow the full-width index rows to the pruned scan schema.
		exprs := make([]expr.Expr, len(names))
		for i, nm := range names {
			exprs[i] = expr.Col(nm)
		}
		p, err := physical.NewProject(op, names, exprs)
		if err != nil {
			return nil, err
		}
		op = p
	}
	return op, nil
}

// materializeKey turns an IndexHint's key operands into an index.Key,
// substituting parameter values. ok=false (without error) means the
// run-time values do not fit the index (fall back to a filtered scan).
func (ex *executor) materializeKey(hint *plan.IndexHint) (index.Key, bool, error) {
	var key index.Key
	iSlot, sSlot := 0, 0
	for i, e := range hint.Key {
		k, isConst := e.(*expr.Const)
		if !isConst {
			p, isParam := e.(*expr.Param)
			if !isParam {
				return key, false, fmt.Errorf("exec: index key operand %T", e)
			}
			if p.Ord < 0 || p.Ord >= len(ex.params) {
				return key, false, fmt.Errorf("exec: index key parameter ?%d has no argument", p.Ord+1)
			}
			k = ex.params[p.Ord]
		}
		switch hint.Kinds[i] {
		case storage.KindInt64, storage.KindTime:
			if k.K != storage.KindInt64 && k.K != storage.KindTime {
				return key, false, nil
			}
			if err := setKeyInt(&key, &iSlot, k.I); err != nil {
				return key, false, nil
			}
		case storage.KindString:
			if k.K != storage.KindString {
				return key, false, nil
			}
			if err := setKeyStr(&key, &sSlot, k.S); err != nil {
				return key, false, nil
			}
		default:
			return key, false, nil
		}
	}
	return key, true, nil
}

func setKeyInt(k *index.Key, slot *int, v int64) error {
	switch *slot {
	case 0:
		k.I0 = v
	case 1:
		k.I1 = v
	case 2:
		k.I2 = v
	default:
		return fmt.Errorf("exec: index key too wide")
	}
	*slot++
	return nil
}

func setKeyStr(k *index.Key, slot *int, v string) error {
	switch *slot {
	case 0:
		k.S0 = v
	case 1:
		k.S1 = v
	default:
		return fmt.Errorf("exec: index key too wide")
	}
	*slot++
	return nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

func aggFuncID(f plan.AggFunc) physical.AggFuncID {
	switch f {
	case plan.AggCount:
		return physical.AggCount
	case plan.AggSum:
		return physical.AggSum
	case plan.AggAvg:
		return physical.AggAvg
	case plan.AggMin:
		return physical.AggMin
	case plan.AggMax:
		return physical.AggMax
	default:
		return physical.AggStddev
	}
}
