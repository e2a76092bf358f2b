package engine

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sommelier/internal/fault"
	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// chaosSchedule is the seeded fault regime of the chaos suite: every
// chunk flight and cache fill has a real chance of failing, so over a
// query bag many — but not all — queries degrade.
const (
	chaosSchedule = "exec.flight=error:0.15,cache.fill=error:0.1"
	chaosSeed     = 17
)

// chaosBag is a deterministic bag of chunk-touching queries using only
// order-insensitive aggregates (COUNT/MIN/MAX), so results compare
// exactly across ingestion fan-out and chunk-subset differences.
func chaosBag() []string {
	stations := []string{"FIAM", "ISK", "AQU", "CERA"}
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	fmtT := func(ts time.Time) string { return ts.Format("2006-01-02T15:04:05.000") }
	rng := rand.New(rand.NewSource(7))
	var bag []string
	for i := 0; i < 12; i++ {
		st := stations[rng.Intn(len(stations))]
		lo := base.Add(time.Duration(rng.Intn(48)) * time.Hour)
		hi := lo.Add(time.Duration(1+rng.Intn(20)) * time.Hour)
		if i%2 == 0 {
			bag = append(bag, fmt.Sprintf(`
				SELECT COUNT(*) AS n, MIN(D.sample_value), MAX(D.sample_value) FROM dataview
				WHERE F.station = '%s'
				  AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, fmtT(lo), fmtT(hi)))
		} else {
			bag = append(bag, fmt.Sprintf(`
				SELECT COUNT(*) AS n, MAX(D.sample_value) FROM windowdataview
				WHERE F.station = '%s'
				  AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s'
				  AND H.window_std_dev >= 0`,
				st, fmtT(lo), fmtT(hi)))
		}
	}
	return bag
}

// exclusionSQL appends one D.file_id <> k predicate per skipped chunk:
// the strict-mode query whose answer a degraded result must equal
// (chunk IDs are file IDs).
func exclusionSQL(sql string, warns []Warning) string {
	var sb strings.Builder
	sb.WriteString(sql)
	for _, w := range warns {
		fmt.Fprintf(&sb, " AND D.file_id <> %d", w.Chunk)
	}
	return sb.String()
}

// rowSink collects streamed rows through the same renderer the
// materialized comparisons use.
type rowSink struct{ sb strings.Builder }

func (s *rowSink) Push(b *storage.Batch) error {
	flat := b.Materialize()
	for r := 0; r < flat.Len(); r++ {
		for c := 0; c < flat.Width(); c++ {
			v := storage.ValueAt(flat.Cols[c], r)
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&s.sb, "%.6f|", f)
			} else {
				fmt.Fprintf(&s.sb, "%v|", v)
			}
		}
		s.sb.WriteByte('\n')
	}
	return nil
}

// TestChaosDegradedEqualsStrictMinusSkipped is the chaos suite's core
// invariant: a degraded result must equal the strict result of the
// same query with the skipped chunks excluded — partial results are
// principled, not approximate. The matrix crosses ingestion fan-out
// 1/3 with materialized/streaming delivery under a seeded fault
// schedule.
func TestChaosDegradedEqualsStrictMinusSkipped(t *testing.T) {
	dir := genRepo(t, 3)
	bag := chaosBag()
	sawDegraded := false

	for _, dop := range []int{1, 3} {
		for _, streaming := range []bool{false, true} {
			name := fmt.Sprintf("dop=%d streaming=%v", dop, streaming)
			faulty, err := openChecked(t, dir, Config{
				Approach: registrar.Lazy, OptDisable: "none", MaxParallel: dop,
				Degraded: true, Faults: chaosSchedule, FaultSeed: chaosSeed,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The reference engine must not inherit any fault schedule —
			// not the suite's, not the environment's.
			clean, err := openChecked(t, dir, Config{
				Approach: registrar.Lazy, OptDisable: "none", MaxParallel: dop,
				Faults: "off",
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			for qi, sql := range bag {
				var got string
				var warns []Warning
				if streaming {
					sink := &rowSink{}
					res, err := faulty.QueryStream(context.Background(), sql, sink)
					if err != nil {
						t.Fatalf("%s query %d: %v", name, qi, err)
					}
					warns = res.Warnings
					got = sink.sb.String()
					res.Release()
				} else {
					res, err := faulty.Query(sql)
					if err != nil {
						t.Fatalf("%s query %d: %v", name, qi, err)
					}
					warns = res.Warnings
					got = renderRows(res)
					res.Release()
				}
				if len(warns) > 0 {
					sawDegraded = true
				}
				want := ""
				ref := exclusionSQL(sql, warns)
				if streaming {
					sink := &rowSink{}
					res, err := clean.QueryStream(context.Background(), ref, sink)
					if err != nil {
						t.Fatalf("%s reference %d: %v", name, qi, err)
					}
					if len(res.Warnings) > 0 {
						t.Fatalf("%s reference %d degraded: %+v", name, qi, res.Warnings)
					}
					want = sink.sb.String()
					res.Release()
				} else {
					res, err := clean.Query(ref)
					if err != nil {
						t.Fatalf("%s reference %d: %v", name, qi, err)
					}
					if len(res.Warnings) > 0 {
						t.Fatalf("%s reference %d degraded: %+v", name, qi, res.Warnings)
					}
					want = renderRows(res)
					res.Release()
				}
				if got != want {
					t.Errorf("%s query %d: degraded result diverges from strict-minus-skipped\nskipped: %+v\ngot:\n%s\nwant:\n%s\nsql: %s",
						name, qi, warns, got, want, bag[qi])
				}
			}
		}
	}
	if !sawDegraded {
		t.Fatal("chaos schedule never degraded a query: the suite exercised nothing")
	}
}

// TestChaosDiskTierDegraded runs the chaos bag with every chunk
// churning through the disk tier (tiny RAM cap + CacheDir) under
// whatever fault schedule the environment arms — CI runs it with
// SOMMELIER_FAULTS=cache.fill=error:0.1, so promote-path fills fail at
// a real rate and degraded results must still equal strict-minus-
// skipped. With no ambient schedule it is a plain tier differential.
func TestChaosDiskTierDegraded(t *testing.T) {
	dir := genRepo(t, 2)
	bag := chaosBag()

	// Clean RAM-only reference: explicitly fault-free, whatever the
	// environment says, and the source of the churn cache sizing.
	clean, err := openChecked(t, dir, Config{
		Approach: registrar.Lazy, OptDisable: "none", Faults: "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range bag {
		res, err := clean.Query(sql)
		if err != nil {
			t.Fatalf("reference warmup: %v", err)
		}
		res.Release()
	}
	refStats := clean.CacheStats()
	if refStats.Chunks == 0 {
		t.Fatal("reference run cached no chunks")
	}
	churnBytes := refStats.BytesUsed / int64(refStats.Chunks) * 3 / 2

	// Empty Faults defers to SOMMELIER_FAULTS: this is the engine the
	// CI fault leg actually shakes.
	faulty, err := openChecked(t, dir, Config{
		Approach: registrar.Lazy, OptDisable: "none",
		Degraded: true, CacheBytes: churnBytes, CacheDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	sawDegraded := false
	// Two passes: the first spills on eviction, the second forces the
	// fill path through Promote — where the injected faults land.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			faulty.waitDiskIdle()
		}
		for qi, sql := range bag {
			res, err := faulty.Query(sql)
			if err != nil {
				t.Fatalf("pass %d query %d: %v", pass, qi, err)
			}
			warns := res.Warnings
			got := renderRows(res)
			res.Release()
			if len(warns) > 0 {
				sawDegraded = true
			}
			ref, err := clean.Query(exclusionSQL(sql, warns))
			if err != nil {
				t.Fatalf("pass %d reference %d: %v", pass, qi, err)
			}
			want := renderRows(ref)
			ref.Release()
			if got != want {
				t.Errorf("pass %d query %d: disk-tier degraded result diverges from strict-minus-skipped\nskipped: %+v\ngot:\n%s\nwant:\n%s",
					pass, qi, warns, got, want)
			}
		}
	}
	if s := faulty.DiskCacheStats(); s.Spills == 0 || s.Promotes == 0 {
		t.Fatalf("disk tier idle under chaos churn: %+v", s)
	}
	// A fault that fired on the chunk path must have degraded a query. A
	// schedule armed at rate zero never fires, so it only has to show it
	// walked the fill check.
	if inj := faulty.FaultInjector(); inj.Enabled() {
		var fired uint64
		for _, p := range []string{fault.PointFlight, fault.PointCacheFill, fault.PointHTTP, fault.PointDecode} {
			fired += inj.Fired(p)
		}
		if fired > 0 && !sawDegraded {
			t.Errorf("ambient schedule fired %d chunk-path faults but never degraded a query over the disk tier", fired)
		}
		if strings.Contains(inj.Spec(), fault.PointCacheFill) && inj.Checks(fault.PointCacheFill) == 0 {
			t.Errorf("ambient schedule arms %s but the disk-tier churn never checked it", fault.PointCacheFill)
		}
	}
	if err := faulty.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosStrictModeFailsUnderFaults: without degraded mode the same
// schedule turns injected chunk faults into query errors (never
// silently partial results).
func TestChaosStrictModeFailsUnderFaults(t *testing.T) {
	dir := genRepo(t, 2)
	db, err := openChecked(t, dir, Config{
		Approach: registrar.Lazy, OptDisable: "none",
		Faults: "exec.flight=error:1", FaultSeed: chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(tQueries()[4])
	if err == nil {
		t.Fatal("strict query under total fault injection succeeded")
	}
	if !strings.Contains(err.Error(), "chunk-access") {
		t.Fatalf("err = %v, want chunk-access failure", err)
	}
}

// TestChaosFaultConfig covers the Config.Faults wiring: garbage specs
// are rejected at open, "off" disarms, empty defers to the process
// environment.
func TestChaosFaultConfig(t *testing.T) {
	dir := genRepo(t, 1)
	if _, err := Open(dir, Config{Approach: registrar.Lazy, Faults: "no-such-point="}); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
	db, err := Open(dir, Config{Approach: registrar.Lazy, Faults: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if inj := db.FaultInjector(); inj == nil || inj.Enabled() {
		t.Fatalf("Faults \"off\" should yield an armed-but-inert injector, got %v", inj)
	}
	db2, err := Open(dir, Config{Approach: registrar.Lazy, Faults: chaosSchedule, FaultSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if inj := db2.FaultInjector(); inj == nil || !inj.Enabled() || inj.Seed() != 5 {
		t.Fatalf("injector = %v, want enabled with seed 5", inj)
	}
}

// flakyArchive serves a repository directory over HTTP with a global
// kill switch.
type flakyArchive struct {
	failing atomic.Bool
	fs      http.Handler
}

func (f *flakyArchive) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.failing.Load() {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	f.fs.ServeHTTP(w, r)
}

// TestChaosHTTPArchiveHeals is the end-to-end outage story: a remote
// archive goes down mid-workload, degraded queries keep answering over
// what they can get while the breaker opens and chunks quarantine;
// when the archive heals and the TTL and cooldown lapse, results
// converge back to the pre-outage answers and the breaker closes.
func TestChaosHTTPArchiveHeals(t *testing.T) {
	dir := genRepo(t, 2)
	if err := registrar.WriteIndexFile(dir); err != nil {
		t.Fatal(err)
	}
	arch := &flakyArchive{fs: http.FileServer(http.Dir(dir))}
	srv := httptest.NewServer(arch)
	defer srv.Close()

	repo := &registrar.HTTPRepository{
		BaseURL: srv.URL,
		Client:  srv.Client(),
		Retry:   registrar.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Breaker: registrar.BreakerConfig{Threshold: 2, Cooldown: 30 * time.Millisecond},

		QuarantineTTL: 40 * time.Millisecond,
	}
	if err := repo.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSource(repo, "", Config{
		Approach: registrar.Lazy, OptDisable: "none", Degraded: true, Faults: "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer requireReleased(t, db)
	sql := tQueries()[4]
	ref, err := db.Query(sql)
	if err != nil {
		t.Fatalf("pre-outage query: %v", err)
	}
	want := renderRows(ref)
	ref.Release()

	// Outage. Evict the cache so the next query must refetch.
	arch.failing.Store(true)
	db.ClearCache()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("degraded query during outage failed: %v", err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("outage query reported no skipped chunks")
	}
	res.Release()
	health := db.SourceHealth()
	if health == nil || health.FetchErrors == 0 {
		t.Fatalf("source health = %+v, want fetch errors recorded", health)
	}

	// Heal; wait out quarantine TTL and breaker cooldown; converge.
	arch.failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	db.ClearCache()
	res, err = db.QueryContext(WithDegraded(context.Background(), false), sql)
	if err != nil {
		t.Fatalf("post-heal strict query failed: %v", err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("post-heal warnings: %+v", res.Warnings)
	}
	if got := renderRows(res); got != want {
		t.Fatalf("post-heal result diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res.Release()
	health = db.SourceHealth()
	for _, h := range health.Hosts {
		if h.State != registrar.BreakerClosed.String() {
			t.Fatalf("host %s breaker %s after heal, want closed", h.Host, h.State)
		}
	}
}
