package engine

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestChaosHTTPArchiveHeals is the end-to-end outage story: a remote
// archive goes down mid-workload, degraded queries keep answering over
// what they can get while the breaker opens and chunks quarantine;
// when the archive heals and the TTL and cooldown lapse, results
// converge back to the pre-outage answers and the breaker closes. A
// query whose windows are not derived yet is the exception: derived
// windows outlive the query, so they come only from whole series, and
// the query fails with an availability error — no answer over partial
// windows, no window kept — until the archive heals.
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
	cold := tQueries()[5]
	if res, err := db.Query(cold); err == nil {
		res.Release()
		t.Fatalf("cold windows answered during the outage, warnings %v", res.Warnings)
	} else if !degradable(err) || !strings.Contains(err.Error(), "dmd: deriving") {
		t.Fatalf("cold windows during the outage: %v, want a degradable derivation failure", err)
	}
	if n := db.MaterializedWindows(); n != 0 {
		t.Fatalf("%d windows kept from the outage", n)
	}
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
	if got := digest(res.Rel).String(); got != want {
		t.Fatalf("post-heal result diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res.Release()
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
		answers[i] = digest(res.Rel).String()
		res.Release()
	}
	if answers[0] != answers[1] {
		t.Fatalf("cold windows after the heal: %s, strict %s", answers[0], answers[1])
	}
	health = db.SourceHealth()
	for _, h := range health.Hosts {
		if h.State != registrar.BreakerClosed.String() {
			t.Fatalf("host %s breaker %s after heal, want closed", h.Host, h.State)
		}
	}
}
