package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sommelier/internal/registrar"
)

// TestChaosStrictModeFailsUnderFaults: without degraded mode injected
// chunk faults are query errors (never silently partial results).
func TestChaosStrictModeFailsUnderFaults(t *testing.T) {
	dir := genRepo(t, 2)
	db, err := openChecked(t, dir, Config{
		Approach: registrar.Lazy, Faults: "exec.flight=error:1", FaultSeed: 17,
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
// are rejected at open, an empty spec injects nothing, a schedule arms
// the injector with its seed.
func TestChaosFaultConfig(t *testing.T) {
	dir := genRepo(t, 1)
	if _, err := Open(dir, Config{Approach: registrar.Lazy, Faults: "no-such-point="}); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
	db, err := Open(dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if inj := db.FaultInjector(); inj != nil {
		t.Fatalf("no Faults should yield no injector, got %v", inj)
	}
	db2, err := Open(dir, Config{Approach: registrar.Lazy, Faults: "exec.flight=error:0.15", FaultSeed: 5})
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

// fakeClock is a registrar.Clock that moves only when a backoff sleeps
// or the test advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.Advance(d)
	return ctx.Err()
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestChaosHTTPArchiveHeals is the end-to-end outage story: a remote
// archive goes down mid-workload, degraded queries keep answering over
// what they can get while the breaker opens and chunks quarantine;
// when the archive heals and the TTL and cooldown lapse, results
// converge back to the pre-outage answers and the breaker closes. A
// query whose windows are not derived yet answers too: its derivation
// runs in its degraded mode, so the query reads the partial windows and
// carries the skipped chunks as warnings, but no window is kept (none
// is materialized). After the heal the same windows derive whole and
// answer as a database that never saw the outage does.
func TestChaosHTTPArchiveHeals(t *testing.T) {
	dir := genRepo(t, 2)
	if err := registrar.WriteIndexFile(dir); err != nil {
		t.Fatal(err)
	}
	arch := &flakyArchive{fs: http.FileServer(http.Dir(dir))}
	srv := httptest.NewServer(arch)
	defer srv.Close()

	clock := &fakeClock{now: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)}
	repo := &registrar.HTTPRepository{BaseURL: srv.URL, Client: srv.Client(), Clock: clock}
	if err := repo.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	db, err := OpenSource(repo, "", Config{
		Approach: registrar.Lazy, Degraded: true,
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
	want := digest(ref.Rel).String()

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
	cold := tQueries()[5]
	res, err = db.Query(cold)
	if err != nil {
		t.Fatalf("cold windows during the outage: %v", err)
	}
	if len(res.Warnings) == 0 || res.DMd.Computed == 0 || res.Stats.ChunksSkipped != len(res.Warnings) {
		t.Fatalf("cold windows during the outage: warnings %v, dmd %+v, %d skipped; want skipped chunks, each once, and derived windows",
			res.Warnings, res.DMd, res.Stats.ChunksSkipped)
	}
	for i, w := range res.Warnings {
		if slices.ContainsFunc(res.Warnings[:i], func(v Warning) bool { return v.Chunk == w.Chunk }) {
			t.Fatalf("chunk %d warned twice: %v", w.Chunk, res.Warnings)
		}
	}
	if n := db.MaterializedWindows(); n != 0 {
		t.Fatalf("%d windows kept from the outage", n)
	}
	// The query's two chunks have six attempts between them and the
	// fifth failure opens the breaker, so at least one chunk used up
	// all three of its attempts and sits in quarantine. The backoffs
	// advanced the clock by well under the cooldown.
	health := db.SourceHealth()
	if health == nil || health.FetchErrors == 0 || health.Quarantined == 0 ||
		len(health.Hosts) != 1 || health.Hosts[0].Opens == 0 ||
		health.Hosts[0].State != registrar.BreakerOpen.String() {
		t.Fatalf("source health = %+v, want fetch errors, an open breaker and quarantined chunks", health)
	}

	// Heal; let quarantine TTL and breaker cooldown lapse; converge.
	arch.failing.Store(false)
	clock.Advance(max(registrar.QuarantineTTL, registrar.BreakerCooldown) + time.Second)
	if h := db.SourceHealth(); h.Quarantined != 0 {
		t.Fatalf("source health = %+v after the TTL, want an empty quarantine", h)
	}
	db.ClearCache()
	res, err = db.QueryContext(WithDegraded(context.Background(), false), sql)
	if err != nil {
		t.Fatalf("post-heal strict query failed: %v", err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("post-heal warnings: %+v", res.Warnings)
	}
	if got := digest(res.Rel).String(); got != want {
		t.Fatalf("post-heal result diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	strict, err := openChecked(t, dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	var answers [2]string
	for i, d := range []*DB{db, strict} {
		res, err = d.Query(cold)
		if err != nil {
			t.Fatalf("cold windows after the heal: %v", err)
		}
		if len(res.Warnings) != 0 || res.DMd.Computed == 0 {
			t.Fatalf("cold windows after the heal: warnings %v, dmd %+v; want none and derived windows", res.Warnings, res.DMd)
		}
		answers[i] = digest(res.Rel).String()
	}
	if n := db.MaterializedWindows(); n == 0 {
		t.Fatal("no window kept after the heal")
	}
	if answers[0] != answers[1] {
		t.Fatalf("cold windows after the heal: %s, strict %s", answers[0], answers[1])
	}
	health = db.SourceHealth()
	if health.Quarantined != 0 || len(health.Hosts) != 1 || health.Hosts[0].State != registrar.BreakerClosed.String() {
		t.Fatalf("source health = %+v after heal, want an empty quarantine and a closed breaker", health)
	}
}

// TestChaosEagerDMdOpensWhole: eager_dmd promises every window
// materialized at Open, so its derivation runs strict even on a
// degraded database, and an eager database holds every chunk resident,
// so chunk faults cannot make a window partial. Under total chunk
// faults it opens with the same windows, and answers a windows query
// without warnings, as a fault-free strict twin.
func TestChaosEagerDMdOpensWhole(t *testing.T) {
	dir := genRepo(t, 2)
	var answers [2]string
	var windows [2]int
	for i, cfg := range []Config{
		{Approach: registrar.EagerDMd, Degraded: true, Faults: "exec.flight=error:1", FaultSeed: 17},
		{Approach: registrar.EagerDMd},
	} {
		db, err := openChecked(t, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		windows[i] = db.MaterializedWindows()
		res, err := db.Query(tQueries()[5])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Warnings) != 0 || res.DMd.Computed != 0 {
			t.Fatalf("%+v: warnings %v, dmd %+v; want none and nothing derived after Open", cfg, res.Warnings, res.DMd)
		}
		answers[i] = digest(res.Rel).String()
		db.Close()
	}
	if windows[0] == 0 || windows[0] != windows[1] || answers[0] != answers[1] {
		t.Fatalf("under faults %d windows, answer %s; fault-free %d, %s", windows[0], answers[0], windows[1], answers[1])
	}
}
