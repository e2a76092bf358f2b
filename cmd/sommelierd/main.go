// Command sommelierd serves SQL queries over a registered chunk
// repository as an HTTP JSON API — the system as a service rather than
// a library. An adaptive admission controller bounds how many queries
// execute concurrently on one shared engine.DB (safe by the engine's
// concurrency guarantees): the limit floats between -workers-min and
// -workers-max by AIMD on observed latency, excess load queues with a
// deadline-aware bound and sheds with 429 + Retry-After, each request
// carries a context deadline enforced at batch granularity, and
// SIGINT/SIGTERM trigger a graceful drain.
//
// Usage:
//
//	sommelierd -dir repo -approach lazy -addr :8707 -workers 8
//	sommelierd -remote http://archive:9000/chunks   # serve a remote archive
//	sommelierd -gen-days 2          # demo mode: synthetic temp repo
//
// Endpoints:
//
//	POST /query    {"sql": "SELECT ...", "timeout_ms": 5000}
//	GET  /stats    server, admission, cache and engine counters
//	GET  /healthz  liveness probe
//	GET  /readyz   readiness probe (503 while overloaded)
//
// With -pprof ADDR the standard net/http/pprof handlers are served on a
// separate listener (GET /debug/pprof/), so CPU, heap, mutex and block
// profiles can be captured from a running server.
//
// Robustness knobs (see RELIABILITY.md): -degraded makes partial
// results the server default when an archive chunk is unavailable,
// -faults/-fault-seed arm the deterministic fault injector, the
// -fetch-*/-breaker-*/-quarantine-ttl flags tune the remote-archive
// retry, circuit-breaker and quarantine policies, and the overload
// controls (-workers-min, -workers-max, -queue, -global-memory-bytes,
// -governor-wait) bound concurrency and memory under hostile traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux, served only by -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/server"
	"sommelier/internal/table"
)

// options collects every flag so run stays testable and new knobs do
// not grow the positional parameter list.
type options struct {
	addr        string
	dir         string
	remote      string
	approach    string
	workers     int
	workersMin  int
	workersMax  int
	queue       int
	timeout     time.Duration
	maxTimeout  time.Duration
	cacheBytes  int64
	cachePolicy string
	cacheDir    string
	diskCacheB  int64
	maxQueryB   int64
	globalMemB  int64
	govWait     time.Duration
	genDays     int
	pprofAddr   string

	// Robustness.
	degraded      bool
	faults        string
	faultSeed     int64
	fetchTimeout  time.Duration
	fetchRetries  int
	fetchBackoff  time.Duration
	quarantineTTL time.Duration
	breakerThresh int
	breakerCool   time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8707", "listen address")
	flag.StringVar(&o.dir, "dir", "", "repository directory (empty: generate a synthetic demo repo)")
	flag.StringVar(&o.remote, "remote", "", "base URL of a remote HTTP chunk archive (overrides -dir)")
	flag.StringVar(&o.approach, "approach", "lazy", "loading approach: lazy, eager_csv, eager_plain, eager_index, eager_dmd")
	flag.IntVar(&o.workers, "workers", 0, "initial concurrent-query limit for the adaptive controller (0 = GOMAXPROCS)")
	flag.IntVar(&o.workersMin, "workers-min", 0, "floor of the adaptive concurrency limit (0 = 1)")
	flag.IntVar(&o.workersMax, "workers-max", 0, "ceiling of the adaptive concurrency limit (0 = 4x workers)")
	flag.IntVar(&o.queue, "queue", 0, "queued query bound before shedding with 429 (0 = 4x workers-max)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-query timeout")
	flag.DurationVar(&o.maxTimeout, "max-timeout", 5*time.Minute, "cap on client-requested timeout_ms")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 0, "recycler capacity in bytes (0 = default, negative = disable)")
	flag.StringVar(&o.cachePolicy, "cache-policy", "lru", "recycler replacement policy: lru, cost-aware")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "persistent disk cache tier directory (lazy approach): evicted chunks spill here and restarts are warm; empty = RAM-only")
	flag.Int64Var(&o.diskCacheB, "disk-cache-bytes", 0, "disk tier capacity in bytes (0 = unbounded)")
	flag.Int64Var(&o.maxQueryB, "max-query-bytes", 0, "per-query memory ceiling on materialized bytes; exceeding it fails the query with 413 (0 = unlimited)")
	flag.Int64Var(&o.globalMemB, "global-memory-bytes", 0, "process-wide memory governor: total bytes all in-flight queries may hold; exhaustion degrades to queueing then 429 (0 = ungoverned)")
	flag.DurationVar(&o.govWait, "governor-wait", 0, "how long a query waits for governed memory before shedding (0 = default 100ms)")
	flag.IntVar(&o.genDays, "gen-days", 2, "days of synthetic data when generating a demo repo")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

	flag.BoolVar(&o.degraded, "degraded", false, "default to degraded mode: answer over available chunks when some are unreachable (per-request override via \"degraded\")")
	flag.StringVar(&o.faults, "faults", "", "deterministic fault-injection spec, e.g. registrar.http=error:0.05 (empty: no injection)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "seed for the -faults schedule (reproducible fault sequences)")
	flag.DurationVar(&o.fetchTimeout, "fetch-timeout", 30*time.Second, "per-attempt deadline for one remote chunk fetch")
	flag.IntVar(&o.fetchRetries, "fetch-retries", 0, "max fetch attempts per chunk, including the first (0 = default 3)")
	flag.DurationVar(&o.fetchBackoff, "fetch-backoff", 0, "base retry backoff, doubled per attempt with jitter (0 = default 50ms)")
	flag.DurationVar(&o.quarantineTTL, "quarantine-ttl", 0, "how long a failed chunk stays quarantined (0 = default 30s, negative disables)")
	flag.IntVar(&o.breakerThresh, "breaker-threshold", 0, "consecutive fetch failures before the per-host circuit opens (0 = default 5)")
	flag.DurationVar(&o.breakerCool, "breaker-cooldown", 0, "how long an open circuit waits before a half-open probe (0 = default 2s)")
	flag.Parse()

	if err := run(o); err != nil {
		log.Fatalf("sommelierd: %v", err)
	}
}

func run(o options) error {
	if o.pprofAddr != "" {
		// Opt-in profiling endpoint on its own listener, so CPU and
		// contention profiles can be captured from a production server
		// without exposing pprof on the query port. The query mux is a
		// dedicated ServeMux; the net/http/pprof handlers live only on
		// the DefaultServeMux served here.
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	var policy cache.Policy
	switch o.cachePolicy {
	case "lru":
		policy = cache.LRU
	case "cost-aware":
		policy = cache.CostAware
	default:
		return fmt.Errorf("unknown -cache-policy %q", o.cachePolicy)
	}
	cfg := engine.Config{
		Approach:          registrar.Approach(o.approach),
		CacheBytes:        o.cacheBytes,
		CachePolicy:       policy,
		CacheDir:          o.cacheDir,
		DiskCacheBytes:    o.diskCacheB,
		MaxQueryBytes:     o.maxQueryB,
		GlobalMemoryBytes: o.globalMemB,
		GovernorWait:      o.govWait,
		Degraded:          o.degraded,
		Faults:            o.faults,
		FaultSeed:         o.faultSeed,
	}

	t0 := time.Now()
	var db *engine.DB
	var err error
	var origin string
	if o.remote != "" {
		repo := &registrar.HTTPRepository{
			BaseURL: o.remote,
			Timeout: o.fetchTimeout,
			Retry: registrar.RetryPolicy{
				MaxAttempts: o.fetchRetries,
				BaseBackoff: o.fetchBackoff,
			},
			Breaker: registrar.BreakerConfig{
				Threshold: o.breakerThresh,
				Cooldown:  o.breakerCool,
			},
			QuarantineTTL: o.quarantineTTL,
		}
		if err := repo.Discover(context.Background()); err != nil {
			return fmt.Errorf("discover %s: %w", o.remote, err)
		}
		db, err = engine.OpenSource(repo, "", cfg)
		origin = o.remote
	} else {
		dir := o.dir
		if dir == "" {
			d, mkErr := os.MkdirTemp("", "sommelierd-demo-")
			if mkErr != nil {
				return mkErr
			}
			log.Printf("no -dir given: generating %d-day synthetic repository under %s", o.genDays, d)
			if _, genErr := seisgen.Generate(d, seisgen.DefaultConfig(o.genDays)); genErr != nil {
				return genErr
			}
			dir = d
		}
		db, err = engine.Open(dir, cfg)
		origin = dir
	}
	if err != nil {
		return err
	}
	// Register the metadata-only window view so T3 queries work out of
	// the box (the same view the evaluation suite uses).
	err = db.Catalog().AddView(&table.View{
		Name:   "windowdataview_md",
		Tables: []string{seismic.TableF, seismic.TableH},
		Joins: []table.JoinPred{
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
		},
	})
	if err != nil {
		return err
	}
	rep := db.Report()
	how := "cold"
	if db.WarmStart() {
		how = "warm restart"
	}
	log.Printf("registered %s (%s, %s): %d files, %d segments in %v",
		origin, o.approach, how, rep.Files, rep.Segments, time.Since(t0).Round(time.Millisecond))
	if o.degraded {
		log.Printf("degraded mode is the server default: partial results carry warnings")
	}

	if o.globalMemB > 0 {
		log.Printf("memory governor armed: %d bytes shared across in-flight queries", o.globalMemB)
	}
	svc := server.New(db, server.Config{
		Workers:        o.workers,
		MinWorkers:     o.workersMin,
		MaxWorkers:     o.workersMax,
		QueueDepth:     o.queue,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
	})
	httpSrv := &http.Server{Addr: o.addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (POST /query, GET /stats, GET /healthz, GET /readyz)", o.addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight queries")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	svc.Close()
	// After the drain: flush the working set to the disk tier and
	// persist the warm-restart snapshots (no-op without -cache-dir).
	if err := db.Close(); err != nil {
		log.Printf("cache close: %v", err)
	} else if o.cacheDir != "" {
		log.Printf("warm-restart state saved under %s", o.cacheDir)
	}
	log.Printf("bye")
	return nil
}
