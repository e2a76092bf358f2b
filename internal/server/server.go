// Package server implements sommelierd's HTTP front end: a JSON query
// API over one engine.DB, gated by an adaptive admission controller so
// hostile traffic degrades to fast, honest rejections instead of
// collapsing the engine.
//
// Endpoints:
//
//	POST /query    {"sql": "...", "params": [...], "timeout_ms": 5000}  →  result JSON
//	GET  /stats    admission, governor, cache, plan-cache and engine counters
//	GET  /healthz  liveness probe (process up)
//	GET  /readyz   readiness probe (503 while the queue is saturated
//	               or the memory governor is exhausted)
//
// Queries are compiled through the engine's plan cache: statements
// differing only in literals share one compiled plan, `?` markers bind
// the "params" array, and `EXPLAIN [ANALYZE] <query>` returns the
// optimized plan (annotated with the executed query's profile) and the
// applied-rule log as rows.
//
// Every response is one sink's framing of the batches the executor
// pushes (stream.go, rendered by render.go). Plain JSON is buffered and
// written once the query has ended; "stream": true flushes each batch
// as it is produced (newline-delimited JSON, or the binary columnar
// format of wire.go with "format": "columnar"), so the first row
// reaches the client while the scan runs and the server never holds
// the full result.
//
// Admission (internal/admission) replaced the fixed worker pool: the
// dispatch gate is an AIMD concurrency limiter adapting to observed
// query latency between a configured floor and ceiling, and the wait
// queue in front of it is deadline-aware — a request whose remaining
// deadline cannot outlast the expected queue wait is rejected up
// front, and one whose deadline expires while queued is never
// dispatched. Rejections answer 429 with a computed Retry-After.
// Inside the engine the same request's context deadline is enforced
// cooperatively at every batch boundary (the runaway watchdog,
// surfacing as *exec.DeadlineError → 504), and the optional global
// memory governor sheds queries the process cannot afford
// (*storage.GovernorError → 429).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sommelier/internal/admission"
	"sommelier/internal/cache"
	"sommelier/internal/chunkstore"
	"sommelier/internal/engine"
	"sommelier/internal/exec"
	"sommelier/internal/fault"
	"sommelier/internal/registrar"
	"sommelier/internal/sqlparse"
	"sommelier/internal/storage"
)

// Config parameterizes the service.
type Config struct {
	// Workers is the admission limiter's initial concurrency; 0 means
	// GOMAXPROCS. The limit then adapts between MinWorkers and
	// MaxWorkers with observed query latency (AIMD).
	Workers int
	// MinWorkers is the limiter's floor; 0 means 1.
	MinWorkers int
	// MaxWorkers is the limiter's ceiling; 0 means 4×Workers.
	MaxWorkers int
	// QueueDepth bounds queued-but-not-running queries; 0 means
	// 4×Workers. Beyond it, POST /query sheds with 429 + Retry-After.
	QueueDepth int
	// DefaultTimeout applies when a request names none; 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms; 0 means 5m.
	MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 4 * c.Workers
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP query service. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	db    *engine.DB
	cfg   Config
	mux   *http.ServeMux
	ctrl  *admission.Controller
	start time.Time

	received      atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	rejected      atomic.Int64
	streamed      atomic.Int64
	degraded      atomic.Int64
	deadlineKills atomic.Int64
	governorSheds atomic.Int64
}

// New builds the service over db. Queries now run on their handler
// goroutines, gated by the admission controller — there is no worker
// pool to start or drain.
func New(db *engine.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:  db,
		cfg: cfg,
		mux: http.NewServeMux(),
		ctrl: admission.New(admission.Config{
			Floor:    cfg.MinWorkers,
			Ceiling:  cfg.MaxWorkers,
			Initial:  cfg.Workers,
			MaxQueue: cfg.QueueDepth,
		}),
		start: time.Now(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close is retained for symmetry with New; in-flight requests are the
// HTTP server's to drain (http.Server.Shutdown), and the admission
// controller holds no goroutines.
func (s *Server) Close() {}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Params binds the statement's `?` markers, in order (numbers,
	// strings, booleans). Statements without markers take none.
	Params []any `json:"params,omitempty"`
	// TimeoutMS overrides the server's default per-request timeout,
	// capped by the configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream requests incremental delivery: batches are flushed as they
	// are produced instead of one buffered response body. Implied by
	// Format "columnar".
	Stream bool `json:"stream,omitempty"`
	// Format selects the wire format: "json" (the default: the plain
	// JSON body, or newline-delimited JSON with Stream) or "columnar"
	// (the binary columnar format of wire.go, which implies Stream).
	Format string `json:"format,omitempty"`
	// Degraded overrides the database's degraded-mode default for this
	// request: true accepts a partial result (with per-chunk warnings)
	// when chunk fetches exhaust their retries, false demands strict
	// fail-fast. Omitted defers to the server's -degraded default.
	Degraded *bool `json:"degraded,omitempty"`
}

// QueryStats mirrors the executor's per-query statistics.
type QueryStats struct {
	QueryType      int     `json:"query_type"`
	ElapsedUS      int64   `json:"elapsed_us"`
	Stage1US       int64   `json:"stage1_us"`
	LoadUS         int64   `json:"load_us"`
	Stage2US       int64   `json:"stage2_us"`
	ChunksSelected int     `json:"chunks_selected"`
	ChunksLoaded   int     `json:"chunks_loaded"`
	CacheHits      int     `json:"cache_hits"`
	RowsLoaded     int64   `json:"rows_loaded"`
	SampleFraction float64 `json:"sample_fraction"`
	DMdComputed    int     `json:"dmd_windows_computed,omitempty"`
	// CompileUS is the parse+plan+optimize time of this request;
	// PlanCacheHit marks that the compiled plan came from the cache.
	CompileUS    int64 `json:"compile_us"`
	PlanCacheHit bool  `json:"plan_cache_hit"`
	// TimeoutMS is the effective deadline this request ran under (the
	// requested timeout_ms, the server default when none was sent, or
	// the server cap); TimeoutCapped marks that the requested value
	// exceeded the cap and was clamped.
	TimeoutMS     int64 `json:"timeout_ms"`
	TimeoutCapped bool  `json:"timeout_capped,omitempty"`
	// Degraded marks a partial result: ChunksSkipped chunks were
	// unavailable and the response carries one warning for each.
	Degraded      bool `json:"degraded,omitempty"`
	ChunksSkipped int  `json:"chunks_skipped,omitempty"`
}

// QueryResponse is the POST /query success body as a client decodes it;
// the server renders it batch by batch as the drain pushes them.
type QueryResponse struct {
	Columns  []string   `json:"columns"`
	Rows     [][]any    `json:"rows"`
	RowCount int        `json:"row_count"`
	Stats    QueryStats `json:"stats"`
	// Warnings is present only on degraded results: one entry per
	// chunk the query proceeded without.
	Warnings []engine.Warning `json:"warnings,omitempty"`
}

// errorResponse is every non-2xx body. Position (byte offset into the
// statement) is present for parse errors.
type errorResponse struct {
	Error    string `json:"error"`
	Position *int   `json:"position,omitempty"`
}

// errorBody builds the error response, surfacing the parse position
// when the failure carries one.
func errorBody(err error) errorResponse {
	body := errorResponse{Error: err.Error()}
	var perr *sqlparse.Error
	if errors.As(err, &perr) {
		pos := perr.Pos
		body.Position = &pos
	}
	return body
}

// maxRequestBytes caps a POST /query body: a statement and its
// parameters, read in full before admission sees the request.
const maxRequestBytes = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing \"sql\""})
		return
	}
	if req.TimeoutMS < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "timeout_ms must be non-negative"})
		return
	}
	switch req.Format {
	case "", FormatNDJSON, FormatColumnar:
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown format %q", req.Format)})
		return
	}
	timeout := s.cfg.DefaultTimeout
	capped := false
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
			capped = true
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if req.Degraded != nil {
		ctx = engine.WithDegraded(ctx, *req.Degraded)
	}

	s.received.Add(1)
	// JSON numbers arrive as float64; integral values mean integers
	// (file IDs, timestamps) far more often than floats, and the
	// numeric comparison kernels promote either way.
	for i, p := range req.Params {
		if f, ok := p.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			req.Params[i] = int64(f)
		}
	}
	// server.admit fault point: a synthetic shed or a stalled gate,
	// before the request touches the queue.
	if act := s.db.FaultInjector().Check(fault.PointAdmit); act.Err != nil || act.Delay > 0 {
		if err := act.Wait(ctx); err != nil {
			s.failed.Add(1)
			s.writeError(w, err)
			return
		}
		if act.Err != nil {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: fmt.Sprintf("admission rejected (injected): %v", act.Err)})
			return
		}
	}
	tk, err := s.ctrl.Admit(ctx)
	if err != nil {
		var rej *admission.RejectError
		if errors.As(err, &rej) {
			s.rejected.Add(1)
		} else {
			// The context died while queued: the deadline-aware queue
			// never dispatched it.
			s.failed.Add(1)
		}
		s.writeError(w, err)
		return
	}
	// The ticket's Done releases the concurrency slot and feeds the
	// AIMD loop — unless the query was dropped (killed, disconnected),
	// whose latency measures the client's patience, not ours.
	dropped := false
	defer func() { tk.Done(dropped) }()
	if err := ctx.Err(); err != nil {
		// Admitted but dead on arrival (the window between dispatch and
		// here): never start executing.
		dropped = true
		s.failed.Add(1)
		s.writeError(w, err)
		return
	}
	if req.Stream || req.Format == FormatColumnar {
		s.streamed.Add(1)
	}
	dropped = s.runQuery(ctx, w, req, timeout, capped) != nil
}

// noteError maintains the overload counters for a failed query: a
// watchdog kill or a governor shed is worth distinguishing from a
// generic failure on /stats.
func (s *Server) noteError(err error) {
	var (
		ge *storage.GovernorError
		de *exec.DeadlineError
	)
	switch {
	case errors.As(err, &ge):
		s.governorSheds.Add(1)
	case errors.As(err, &de):
		s.deadlineKills.Add(1)
	}
}

// writeError classifies err, maintains the shed/kill counters, sets
// Retry-After on backpressure rejections, and writes the JSON error
// envelope.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.noteError(err)
	var rej *admission.RejectError
	var ge *storage.GovernorError
	switch {
	case errors.As(err, &rej):
		w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
	case errors.As(err, &ge):
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, errorStatus(err), errorBody(err))
}

// retryAfterSeconds renders a Retry-After duration in whole seconds,
// never below 1 (the header has second resolution, and "0" invites an
// immediate retry storm).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// errorStatus classifies a query error: deadline and cancellation get
// their dedicated codes; parse and planning failures are the client's
// query (400); everything else — chunk I/O, executor faults — is a
// server-side failure (500), so retry and alerting logic can tell the
// two apart.
func errorStatus(err error) int {
	var (
		qe  *storage.QuotaError
		ge  *storage.GovernorError
		rej *admission.RejectError
	)
	switch {
	case errors.As(err, &rej), errors.As(err, &ge):
		// Backpressure, not failure: admission or the global memory
		// governor shed the query. Retry against a less loaded moment
		// (the handler attaches Retry-After).
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		// Including *exec.DeadlineError — the runaway watchdog's
		// batch-boundary kill unwraps to the context deadline.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.As(err, &qe):
		// The query tripped the per-query memory ceiling
		// (engine.Config.MaxQueryBytes): the result is too large to
		// buffer, which a streaming request might still manage.
		return http.StatusRequestEntityTooLarge
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "sql:") || strings.HasPrefix(msg, "plan:") ||
		strings.HasPrefix(msg, "engine: statement") ||
		strings.HasPrefix(msg, "engine: unsupported argument") ||
		strings.HasPrefix(msg, "engine: prepared statement") {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// toStats converts the engine's per-query statistics to the footer's
// wire shape.
func toStats(res *engine.Result, elapsed, timeout time.Duration, capped bool) QueryStats {
	st := res.Stats
	return QueryStats{
		QueryType:      res.QueryType,
		ElapsedUS:      elapsed.Microseconds(),
		Stage1US:       st.Stage1.Microseconds(),
		LoadUS:         st.Load.Microseconds(),
		Stage2US:       st.Stage2.Microseconds(),
		ChunksSelected: st.ChunksSelected,
		ChunksLoaded:   st.ChunksLoaded,
		CacheHits:      st.CacheHits,
		RowsLoaded:     st.RowsLoaded,
		SampleFraction: st.SampleFraction,
		DMdComputed:    res.DMd.Computed,
		CompileUS:      res.Compile.Microseconds(),
		PlanCacheHit:   res.PlanCacheHit,
		TimeoutMS:      timeout.Milliseconds(),
		TimeoutCapped:  capped,
		Degraded:       len(res.Warnings) > 0,
		ChunksSkipped:  st.ChunksSkipped,
	}
}

// GovernorStats is the /stats snapshot of the global memory governor.
type GovernorStats struct {
	LimitBytes     int64 `json:"limit_bytes"`
	InUseBytes     int64 `json:"in_use_bytes"`
	HighWaterBytes int64 `json:"high_water_bytes"`
	Sheds          int64 `json:"sheds"`
	Waits          int64 `json:"waits"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	UptimeS    int64  `json:"uptime_s"`
	Approach   string `json:"approach"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	InFlight   int64  `json:"in_flight"`
	Received   int64  `json:"received"`
	Completed  int64  `json:"completed"`
	Failed     int64  `json:"failed"`
	Rejected   int64  `json:"rejected"`
	Streamed   int64  `json:"streamed"`
	// Degraded counts completed queries that returned partial results.
	Degraded int64 `json:"degraded"`
	// DeadlineKills counts queries the runaway watchdog cancelled at a
	// batch boundary after their deadline expired mid-execution.
	DeadlineKills int64 `json:"deadline_kills"`
	// GovernorSheds counts queries rejected because the global memory
	// governor could not reserve for them in time.
	GovernorSheds int64 `json:"governor_sheds"`
	// Admission is the adaptive limiter's live state: current limit,
	// queue depth and wait percentiles, shed counters.
	Admission admission.Stats `json:"admission"`
	// Governor is the global memory pool's accounting; absent when the
	// server runs ungoverned (no -global-memory-bytes).
	Governor *GovernorStats `json:"governor,omitempty"`
	// Source is the chunk source's reliability snapshot (circuit
	// breakers, quarantine, retry counters) when the source tracks one
	// (remote HTTP archives do); absent for local repositories.
	Source *registrar.Health `json:"source,omitempty"`
	Cache  struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		BytesUsed int64 `json:"bytes_used"`
		Chunks    int   `json:"chunks"`
	} `json:"cache"`
	// DiskCache is the persistent cache tier's counters; absent when
	// the server runs without -cache-dir (RAM-only cache).
	DiskCache *cache.DiskTierStats `json:"disk_cache,omitempty"`
	// Chunks is the engine's chunk store: residency and memory reuse.
	Chunks    chunkstore.Stats `json:"chunks"`
	PlanCache struct {
		Hits     int64 `json:"hits"`
		Misses   int64 `json:"misses"`
		Size     int   `json:"size"`
		Capacity int   `json:"capacity"`
	} `json:"plan_cache"`
	MaterializedWindows int `json:"materialized_windows"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	var resp StatsResponse
	ad := s.ctrl.Snapshot()
	resp.UptimeS = int64(time.Since(s.start).Seconds())
	resp.Approach = string(s.db.Approach())
	resp.Workers = ad.Limit
	resp.QueueDepth = s.cfg.QueueDepth
	resp.Queued = ad.Queued
	resp.InFlight = int64(ad.InFlight)
	resp.Received = s.received.Load()
	resp.Completed = s.completed.Load()
	resp.Failed = s.failed.Load()
	resp.Rejected = s.rejected.Load()
	resp.Streamed = s.streamed.Load()
	resp.Degraded = s.degraded.Load()
	resp.DeadlineKills = s.deadlineKills.Load()
	resp.GovernorSheds = s.governorSheds.Load()
	resp.Admission = ad
	if g := s.db.Governor(); g != nil {
		resp.Governor = &GovernorStats{
			LimitBytes:     g.Limit(),
			InUseBytes:     g.InUse(),
			HighWaterBytes: g.HighWater(),
			Sheds:          g.Sheds(),
			Waits:          g.Waits(),
		}
	}
	resp.Source = s.db.SourceHealth()
	cs := s.db.CacheStats()
	resp.Cache.Hits = cs.Hits
	resp.Cache.Misses = cs.Misses
	resp.Cache.Evictions = cs.Evictions
	resp.Cache.BytesUsed = cs.BytesUsed
	resp.Cache.Chunks = cs.Chunks
	if s.db.DiskTierEnabled() {
		ds := s.db.DiskCacheStats()
		resp.DiskCache = &ds
	}
	resp.Chunks = s.db.ChunkStats()
	ps := s.db.PlanCacheStats()
	resp.PlanCache.Hits = ps.Hits
	resp.PlanCache.Misses = ps.Misses
	resp.PlanCache.Size = ps.Size
	resp.PlanCache.Capacity = ps.Capacity
	resp.MaterializedWindows = s.db.MaterializedWindows()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: the process is up and serving. It
// deliberately stays 200 under overload — restarting a server for
// being busy makes the overload worse.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 while the admission queue is
// saturated (half its bound) or the memory governor is effectively
// exhausted, so load balancers stop routing here *before* requests
// start shedding, and resume when pressure drains.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var reasons []string
	if s.ctrl.Saturated() {
		reasons = append(reasons, "admission queue saturated")
	}
	if s.db.Governor().Exhausted() {
		reasons = append(reasons, "memory governor exhausted")
	}
	if len(reasons) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: "+strings.Join(reasons, "; "))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
