package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/server"
)

// harness holds what every workload of one invocation shares: the built
// sommelierd, the seeded archive, and the scratch directory both live
// in.
type harness struct {
	root, runDir, bin string
	sc                scale
	seed              int64
	window            time.Duration
	nproc             int
	ds                *dataset
	genS, buildS      float64
	loadavg           float64
}

// newHarness builds sommelierd from the sources under root into buildDir
// and generates the archive in a scratch directory there.
func newHarness(ctx context.Context, root, buildDir string, seed int64, window time.Duration, sc scale) (*harness, error) {
	h := &harness{root: root, sc: sc, seed: seed, window: window, nproc: runtime.NumCPU(), loadavg: loadAverage()}
	// The generator never runs wider than the host: sommelierd shares
	// these cores with it.
	if runtime.GOMAXPROCS(0) > h.nproc {
		runtime.GOMAXPROCS(h.nproc)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	h.bin = filepath.Join(buildDir, "sommelierd")
	t0 := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", h.bin, "./cmd/sommelierd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build sommelierd: %w\n%s", err, out)
	}
	h.buildS = time.Since(t0).Seconds()

	var err error
	if h.runDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if h.ds, err = generate(filepath.Join(h.runDir, "archive"), seed, sc); err != nil {
		h.close()
		return nil, err
	}
	h.genS = time.Since(t0).Seconds()
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.runDir) }

func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0 // not Linux: the envelope says so by reading 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

// passResult is one workload measured once, traced or not.
type passResult struct {
	Clients   int                `json:"clients"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// served is one readied and warmed sommelierd with the client streams
// that will go on to drive it.
type served struct {
	c       *child
	drv     *driver
	streams []*stream
	// loaded is the sum of chunks_loaded over every request since the
	// process started; setupS is exec to end of warm-up.
	loaded int
	setupS float64
}

func (s *served) discard() {
	s.drv.close()
	s.c.kill()
}

// setUp is what setup_s times: exec sommelierd, /readyz, first answer,
// end of warm-up. With a disk tier it is the whole fill sweep (every
// chunk fetched from the archive, evicted from RAM, spilled), the clean
// shutdown that snapshots and SpillSyncs, and the restart to warm.
func (h *harness) setUp(ctx context.Context, w *workload, m mix, clients, rep int) (*served, error) {
	args := []string{"-dir", h.ds.dir, "-approach", "lazy"}
	if w.coldCache {
		args = append(args, "-cache-bytes", strconv.FormatInt(h.sc.ColdCacheBytes, 10))
	}
	if w.diskTier {
		args = append(args, "-cache-dir", filepath.Join(h.runDir, fmt.Sprintf("%s-cache-%d", w.name, rep)))
	}
	logPath := filepath.Join(h.runDir, w.name+".log")
	t0 := time.Now()
	c, err := startChild(ctx, h.bin, args, logPath)
	if err != nil {
		return nil, err
	}
	s := &served{c: c, drv: newDriver(c.base, clients)}
	if w.diskTier {
		fill := s.drv.runList(ctx, clients, m.distinct())
		s.drv.close()
		if err := firstError(fill); err != nil {
			c.kill()
			return nil, fmt.Errorf("fill sweep: %w", err)
		}
		if err := c.stop(); err != nil {
			return nil, fmt.Errorf("clean shutdown after fill: %w", err)
		}
		if s.c, err = startChild(ctx, h.bin, args, logPath); err != nil {
			return nil, err
		}
		s.drv = newDriver(s.c.base, clients)
	}
	for cl := 0; cl < clients; cl++ {
		s.streams = append(s.streams, newStream(m, h.seed, cl))
	}
	var warm []sample
	if w.warmRequests > 0 {
		warm = s.drv.runStreams(ctx, s.streams, time.Time{}, w.warmRequests/clients)
	} else {
		warm = s.drv.runList(ctx, clients, m.distinct())
	}
	s.setupS = time.Since(t0).Seconds()
	if err := firstError(warm); err != nil {
		s.discard()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, sm := range warm {
		s.loaded += sm.stats.ChunksLoaded
	}
	return s, nil
}

// pass measures one workload: set-up (SetupReps times when untraced, the
// median is setup_s), one closed-loop window with every answer checked,
// and when traced the per-layer metrics of that window plus the
// in-process span pass. A traced pass's window yields end-to-end values
// too (tracing starts only after it); they are kept for reference, on one
// set-up, and reported by nothing.
func (h *harness) pass(ctx context.Context, w *workload, tr *tracer) (*passResult, error) {
	m := w.mix(h.ds, h.sc, rand.New(rand.NewSource(h.seed)))
	if err := fillReference(ctx, h.ds.dir, m.distinct(), h.nproc); err != nil {
		return nil, err
	}
	clients := min(w.clients, h.nproc)
	reps := h.sc.SetupReps
	if tr != nil {
		reps = 1
	}
	var (
		s      *served
		setups []float64
	)
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			s.discard()
		}
		var err error
		if s, err = h.setUp(ctx, w, m, clients, rep); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, s.setupS)
	}
	defer s.discard()

	before, err := s.c.stats()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(h.window)
	all := s.drv.runStreams(ctx, s.streams, deadline, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := s.c.stats()
	if err != nil {
		return nil, err
	}
	rss, err := s.c.rssPeakMB()
	if err != nil {
		return nil, err
	}
	s.drv.close()
	if err := s.c.stop(); err != nil {
		return nil, fmt.Errorf("%s: sommelierd shutdown: %w", w.name, err)
	}

	// A request still in flight at the deadline is awaited but belongs
	// to no window; its chunk loads still count towards the fetch
	// accounting below.
	var samples []sample
	for _, sm := range all {
		s.loaded += sm.stats.ChunksLoaded
		if !sm.end.After(deadline) {
			samples = append(samples, sm)
		}
	}
	res := &passResult{Clients: clients, Attempted: len(samples), Correct: true, Metrics: map[string]float64{}}
	var lat, ttfb []float64
	for _, sm := range samples {
		if sm.err != nil {
			// A refused or failed request misses every latency limit: it
			// sorts past every real latency (JSON cannot carry +Inf).
			res.Failed++
			lat, ttfb = append(lat, math.MaxFloat64), append(ttfb, math.MaxFloat64)
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, sm.err.Error())
			}
			continue
		}
		lat, ttfb = append(lat, ms(sm.latency)), append(ttfb, ms(sm.ttfb))
	}
	sum, err := summarize(lat, h.sc.SampleFloor)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if w.diskTier {
		// After the restart nothing may come from the archive, and no
		// block the fill wrote may fail its CRC.
		if fetched := s.loaded - int(after.DiskCache.Promotes); fetched != 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("%d archive fetches after the warm restart, want 0", fetched))
		}
		if n := after.DiskCache.CorruptBlocks; n != 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("disk tier reports %d corrupt blocks", n))
		}
	}
	res.Correct = len(res.Errors) == 0

	res.Metrics["qps"] = float64(len(samples)-res.Failed) / h.window.Seconds()
	res.Metrics["p50_ms"] = sum.P50
	res.Metrics["p95_ms"] = sum.P95
	res.Metrics["ttfb_p50_ms"] = median(ttfb)
	res.Metrics["rss_peak_mb"] = rss
	res.Metrics["setup_s"] = median(setups)
	if tr == nil {
		return res, nil
	}
	h.layerMetrics(res, all, sum, before, after)
	traced, err := h.tracedPass(ctx, w, m, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	for k, v := range traced {
		res.Metrics[k] = v
	}
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not filled", w.name, def.name)
		}
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics visible from outside the
// program: client timing, the stats block of every reply, and /stats
// deltas across the window. samples are all requests sent in the window,
// including the one per client that outlived it, so that their counts
// agree with the /stats deltas.
func (h *harness) layerMetrics(res *passResult, samples []sample, sum latencySummary, before, after server.StatsResponse) {
	var (
		overhead, compile, stage1, load, stage2     []float64
		byClass                                     = map[string][]float64{}
		selected, loaded, rowsLoaded, stage2US, okN float64
	)
	for _, sm := range samples {
		if sm.err != nil {
			continue
		}
		st := sm.stats
		okN++
		overhead = append(overhead, us(sm.latency)-float64(st.ElapsedUS))
		compile = append(compile, float64(st.CompileUS))
		stage1 = append(stage1, float64(st.Stage1US))
		load = append(load, float64(st.LoadUS))
		stage2 = append(stage2, float64(st.Stage2US))
		byClass[sm.q.class] = append(byClass[sm.q.class], float64(st.Stage2US))
		selected += float64(st.ChunksSelected)
		loaded += float64(st.ChunksLoaded)
		rowsLoaded += float64(st.RowsLoaded)
		stage2US += float64(st.Stage2US)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// The disk tier's counters read zero when sommelierd runs without one.
	var disk, disk0 cache.DiskTierStats
	if after.DiskCache != nil {
		disk, disk0 = *after.DiskCache, *before.DiskCache
	}
	promoted := float64(disk.Promotes - disk0.Promotes)
	diskHits, diskMisses := float64(disk.Hits-disk0.Hits), float64(disk.Misses-disk0.Misses)
	ramHits := float64(after.Cache.Hits - before.Cache.Hits)
	ramMisses := float64(after.Cache.Misses - before.Cache.Misses)
	planHits := float64(after.PlanCache.Hits - before.PlanCache.Hits)
	planMisses := float64(after.PlanCache.Misses - before.PlanCache.Misses)

	m := res.Metrics
	m["server.overhead_us_p50"] = median(overhead)
	m["server.admission_wait_us_p99"] = float64(after.Admission.WaitP99US)
	m["server.shed_count"] = float64(after.Rejected - before.Rejected)
	m["server.error_count"] = float64(after.Failed - before.Failed)
	m["engine.compile_us_p50"] = median(compile)
	m["engine.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
	m["dmd.windows_computed"] = float64(after.MaterializedWindows)
	m["exec.stage1_us_p50"] = median(stage1)
	m["exec.load_us_p50"] = median(load)
	m["exec.stage2_us_p50"] = median(stage2)
	for _, class := range scanClasses {
		m["exec.stage2_us_p50."+class] = median(byClass[class])
	}
	m["exec.stage2_ns_per_row"] = ratio(stage2US*1000, selected*float64(h.sc.SamplesPerFile))
	m["exec.chunks_selected_per_query"] = ratio(selected, okN)
	m["exec.chunks_loaded_per_query"] = ratio(loaded, okN)
	m["exec.chunks_promoted_per_query"] = ratio(promoted, okN)
	m["exec.rows_loaded_per_query"] = ratio(rowsLoaded, okN)
	m["exec.archive_fetches"] = loaded - promoted
	m["cache.ram_hit_ratio"] = ratio(ramHits, ramHits+ramMisses)
	m["cache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	m["cache.bytes_used_mb"] = float64(after.Cache.BytesUsed) / (1 << 20)
	m["cache.disk_hit_ratio"] = ratio(diskHits, diskHits+diskMisses)
	m["cache.disk_spills"] = float64(disk.Spills)
	m["cache.disk_promotes"] = promoted
	m["cache.disk_bytes_per_user_byte"] = ratio(float64(disk.BytesUsed), float64(disk.Blocks)*float64(h.sc.SamplesPerFile)*bytesPerRow)
	m["cache.disk_corrupt_blocks"] = float64(disk.CorruptBlocks)
	m["bench.p99_ms"] = sum.P99
	if math.IsNaN(sum.P99) {
		m["bench.p99_ms"] = 0 // refused: too few samples beyond it in this window
	}
	m["bench.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	m["bench.samples"] = float64(sum.N)
	m["bench.gen_s"] = h.genS
	m["bench.build_s"] = h.buildS
	m["bench.loadavg_before"] = h.loadavg
}
