package registrar

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier/internal/chunkstore"
	"sommelier/internal/fault"
	"sommelier/internal/seismic"
)

// archiveServer fronts a generated repository with controllable
// failure behaviour: fail the next N requests, fail everything, stall
// before answering, and count every request that arrives.
type archiveServer struct {
	mu      sync.Mutex
	failN   int           // fail this many upcoming requests, then serve
	failAll bool          // fail every request
	status  int           // failure status code
	header  http.Header   // extra headers on failures
	sleep   time.Duration // pre-answer stall
	hang    bool          // answer nothing until the client goes away
	reqs    int
	fs      http.Handler
}

func newArchiveServer(t *testing.T) (*httptest.Server, *archiveServer) {
	t.Helper()
	dir, _ := genRepo(t, 2)
	if err := WriteIndexFile(dir); err != nil {
		t.Fatal(err)
	}
	a := &archiveServer{status: http.StatusInternalServerError, fs: http.FileServer(http.Dir(dir))}
	srv := httptest.NewServer(a)
	t.Cleanup(srv.Close)
	return srv, a
}

func (a *archiveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	a.reqs++
	fail := a.failAll
	if !fail && a.failN > 0 {
		a.failN--
		fail = true
	}
	status := a.status
	sleep := a.sleep
	hang := a.hang
	hdr := a.header
	a.mu.Unlock()
	if hang {
		<-r.Context().Done()
		return
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(status)
		return
	}
	a.fs.ServeHTTP(w, r)
}

func (a *archiveServer) requests() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reqs
}

func (a *archiveServer) set(fn func(*archiveServer)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fn(a)
}

// fastRetry keeps test retry sleeps in the microsecond range.
var fastRetry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}

// newTestRepo discovers against the archive with fault injection off
// (ambient SOMMELIER_FAULTS must not leak into these tests).
func newTestRepo(t *testing.T, srv *httptest.Server, mut func(*HTTPRepository)) *HTTPRepository {
	t.Helper()
	r := &HTTPRepository{
		BaseURL: srv.URL,
		Client:  srv.Client(),
		Retry:   fastRetry,
		Faults:  fault.Disabled(),
	}
	if mut != nil {
		mut(r)
	}
	if err := r.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFetchRetriesTransientFailures: a chunk fetch survives transient
// 500s within its attempt budget, and Health counts the retries.
func TestFetchRetriesTransientFailures(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	a.set(func(a *archiveServer) { a.failN = 2 })
	rel, err := repo.LoadChunk(seismic.TableD, 0)
	if err != nil {
		t.Fatalf("fetch did not survive 2 transient failures: %v", err)
	}
	if rel.Rows() == 0 {
		t.Fatal("no rows decoded")
	}
	h := repo.Health()
	if h.Retries < 2 || h.FetchErrors < 2 {
		t.Fatalf("health = %+v, want >= 2 retries and fetch errors", h)
	}
}

// TestFetchExhaustsRetries: a persistently failing chunk exhausts its
// attempts, reports them in the Degradable ChunkError, and enters
// quarantine so the next request does not touch the archive.
func TestFetchExhaustsRetries(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	a.set(func(a *archiveServer) { a.failAll = true })

	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChunkError", err)
	}
	if ce.Attempts != fastRetry.MaxAttempts || ce.Quarantined {
		t.Fatalf("ChunkError = %+v, want %d attempts, not yet quarantined", ce, fastRetry.MaxAttempts)
	}
	if !ce.Degradable() {
		t.Fatal("ChunkError must be Degradable")
	}

	before := a.requests()
	_, err = repo.LoadChunk(seismic.TableD, 0)
	if !errors.As(err, &ce) || !ce.Quarantined {
		t.Fatalf("second load err = %v, want quarantined ChunkError", err)
	}
	if a.requests() != before {
		t.Fatalf("quarantined chunk still hit the archive (%d -> %d requests)", before, a.requests())
	}
	if h := repo.Health(); h.Quarantined != 1 {
		t.Fatalf("health = %+v, want 1 quarantined chunk", h)
	}
}

// TestPermanentStatusFailsFast: a 404 proves the host is up and the
// chunk is gone — one attempt, no retries, breaker stays closed.
func TestPermanentStatusFailsFast(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	a.set(func(a *archiveServer) { a.failAll = true; a.status = http.StatusNotFound })

	before := a.requests()
	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChunkError", err)
	}
	if got := a.requests() - before; got != 1 {
		t.Fatalf("404 cost %d requests, want 1 (no retries on permanent status)", got)
	}
	h := repo.Health()
	if len(h.Hosts) != 1 || h.Hosts[0].State != BreakerClosed.String() {
		t.Fatalf("health = %+v, want closed breaker (host answered)", h)
	}
}

// TestQuarantineExpires: after the TTL a quarantined chunk is retried
// against the archive and can recover.
func TestQuarantineExpires(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, func(r *HTTPRepository) {
		r.QuarantineTTL = 30 * time.Millisecond
	})
	a.set(func(a *archiveServer) { a.failAll = true })
	if _, err := repo.LoadChunk(seismic.TableD, 0); err == nil {
		t.Fatal("load succeeded against a failing archive")
	}
	if h := repo.Health(); h.Quarantined != 1 {
		t.Fatalf("health = %+v, want 1 quarantined", h)
	}

	// Archive heals; once the TTL lapses the chunk loads again.
	a.set(func(a *archiveServer) { a.failAll = false })
	time.Sleep(40 * time.Millisecond)
	rel, err := repo.LoadChunk(seismic.TableD, 0)
	if err != nil {
		t.Fatalf("chunk did not recover after quarantine expiry: %v", err)
	}
	if rel.Rows() == 0 {
		t.Fatal("no rows decoded after recovery")
	}
	if h := repo.Health(); h.Quarantined != 0 {
		t.Fatalf("health = %+v, want empty quarantine", h)
	}
}

// TestBreakerOpensAndRecovers: consecutive failures open the per-host
// circuit; while open, requests are rejected without touching the
// archive; after the cooldown a half-open probe against a healed
// archive closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, func(r *HTTPRepository) {
		r.Retry = RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
		r.Breaker = BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond}
		r.QuarantineTTL = -1 // keep every load hitting the fetch path
	})
	a.set(func(a *archiveServer) { a.failAll = true })

	// Three distinct chunks fail once each: the host's streak trips the
	// breaker.
	for id := int64(0); id < 3; id++ {
		if _, err := repo.LoadChunk(seismic.TableD, id); err == nil {
			t.Fatal("load succeeded against a failing archive")
		}
	}
	h := repo.Health()
	if len(h.Hosts) != 1 || h.Hosts[0].State != BreakerOpen.String() {
		t.Fatalf("health = %+v, want open breaker after 3 failures", h)
	}

	// While open: rejected without a request on the wire.
	before := a.requests()
	_, err := repo.LoadChunk(seismic.TableD, 3)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChunkError", err)
	}
	var open *CircuitOpenError
	if !errors.As(ce.Err, &open) {
		t.Fatalf("cause = %v, want *CircuitOpenError", ce.Err)
	}
	if a.requests() != before {
		t.Fatal("open breaker let a request through")
	}
	if h := repo.Health(); h.Rejects == 0 {
		t.Fatalf("health = %+v, want breaker rejects counted", h)
	}
	if h := repo.Health(); h.Quarantined != 0 {
		t.Fatalf("health = %+v: breaker rejections must not quarantine chunks", h)
	}

	// Heal, wait out the cooldown: the half-open probe closes the
	// breaker and chunks load again.
	a.set(func(a *archiveServer) { a.failAll = false })
	time.Sleep(60 * time.Millisecond)
	if _, err := repo.LoadChunk(seismic.TableD, 0); err != nil {
		t.Fatalf("load after heal+cooldown failed: %v", err)
	}
	if h := repo.Health(); h.Hosts[0].State != BreakerClosed.String() {
		t.Fatalf("health = %+v, want breaker closed after successful probe", h)
	}
}

// TestBackoffSleepHonorsCancellation: a caller cancelling mid-backoff
// gets its context error promptly instead of waiting out the sleep.
func TestBackoffSleepHonorsCancellation(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, func(r *HTTPRepository) {
		r.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Second, MaxBackoff: 10 * time.Second}
	})
	a.set(func(a *archiveServer) { a.failAll = true })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := repo.LoadChunkInto(ctx, seismic.TableD, 0, nil, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and the backoff start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestAcquireCancelStopsFetch: a chunk store's load runs under the
// acquiring query's ctx, so an Acquire cancelled while the archive
// stalls returns at once, after one attempt, and leaves the chunk
// unquarantined.
func TestAcquireCancelStopsFetch(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, func(r *HTTPRepository) {
		r.Timeout = 5 * time.Second
		r.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	})
	s := chunkstore.New(seismic.TableD)
	s.Configure(chunkstore.Config{Loader: repo, CacheBytes: 1 << 20})
	a.set(func(a *archiveServer) { a.hang = true })
	before := a.requests()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		h, err := s.Acquire(ctx, 0, nil)
		h.Release()
		done <- err
	}()
	for a.requests() == before {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if el := time.Since(t0); el > time.Second {
			t.Fatalf("cancelled Acquire returned after %v", el)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancellation did not stop the fetch")
	}
	if n := a.requests() - before; n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if h := repo.Health(); h.Quarantined != 0 {
		t.Fatalf("health = %+v: a cancelled load quarantined its chunk", h)
	}
}

// TestPerAttemptTimeout: a stalled archive is cut off by the
// per-attempt deadline rather than hanging the fetch.
func TestPerAttemptTimeout(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	repo.Timeout = 20 * time.Millisecond
	repo.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	a.set(func(a *archiveServer) { a.sleep = 300 * time.Millisecond; a.failAll = true })

	t0 := time.Now()
	_, err := repo.LoadChunk(seismic.TableD, 0)
	if err == nil {
		t.Fatal("stalled fetch succeeded")
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("stalled fetch took %v, per-attempt timeout not applied", el)
	}
}

// TestDiscoverTimeout: discovery flows through the same hardened fetch
// path, so a stalled index request is bounded too (the old code path
// bypassed Timeout entirely).
func TestDiscoverTimeout(t *testing.T) {
	srv, a := newArchiveServer(t)
	a.set(func(a *archiveServer) { a.sleep = 300 * time.Millisecond })
	r := &HTTPRepository{
		BaseURL: srv.URL,
		Client:  srv.Client(),
		Timeout: 20 * time.Millisecond,
		Retry:   RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Faults:  fault.Disabled(),
	}
	t0 := time.Now()
	if err := r.Discover(context.Background()); err == nil {
		t.Fatal("stalled discovery succeeded")
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("stalled discovery took %v", el)
	}
}

// TestDiscoverIndexBounds: an oversized index or an oversized line is
// rejected with a clear error instead of being slurped unbounded.
func TestDiscoverIndexBounds(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		line := strings.Repeat("a", 64) + ".msl\n"
		for written := 0; written <= MaxIndexBytes; written += len(line) {
			if _, err := fmt.Fprint(w, line); err != nil {
				return
			}
		}
	}))
	defer huge.Close()
	r := &HTTPRepository{BaseURL: huge.URL, Client: huge.Client(), Retry: fastRetry, Faults: fault.Disabled()}
	err := r.Discover(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized index: err = %v, want size-cap error", err)
	}

	long := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("b", MaxIndexLine+1)+"\n")
	}))
	defer long.Close()
	r2 := &HTTPRepository{BaseURL: long.URL, Client: long.Client(), Retry: fastRetry, Faults: fault.Disabled()}
	err = r2.Discover(context.Background())
	if err == nil || !strings.Contains(err.Error(), "line exceeds") {
		t.Fatalf("oversized line: err = %v, want line-cap error", err)
	}
}

// TestDecodeFaultQuarantines: a payload that fails to decode (here via
// the mseed.decode fault point) quarantines its chunk like a fetch
// failure would.
func TestDecodeFaultQuarantines(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	repo.SetFaults(fault.MustNew("mseed.decode=error:1", 7))

	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Quarantined {
		t.Fatalf("err = %v, want fresh (not-yet-quarantined) ChunkError", err)
	}
	before := a.requests()
	repo.SetFaults(fault.Disabled())
	_, err = repo.LoadChunk(seismic.TableD, 0)
	if !errors.As(err, &ce) || !ce.Quarantined {
		t.Fatalf("second load err = %v, want quarantined ChunkError", err)
	}
	if a.requests() != before {
		t.Fatal("quarantined chunk touched the archive")
	}
}

// TestCorruptFaultDetected: the registrar.http corrupt fault flips a
// byte in the payload header region; the decoder rejects it and the
// chunk is quarantined as corrupt.
func TestCorruptFaultDetected(t *testing.T) {
	srv, _ := newArchiveServer(t)
	repo := newTestRepo(t, srv, nil)
	repo.SetFaults(fault.MustNew("registrar.http=corrupt:1", 3))

	rel, err := repo.LoadChunk(seismic.TableD, 0)
	repo.SetFaults(fault.Disabled())
	clean, cleanErr := func() (int, error) {
		r2 := newTestRepo(t, srv, nil)
		rel2, err := r2.LoadChunk(seismic.TableD, 0)
		if err != nil {
			return 0, err
		}
		return rel2.Rows(), nil
	}()
	if cleanErr != nil {
		t.Fatalf("clean load failed: %v", cleanErr)
	}
	// A single flipped byte either breaks the decode (the common case —
	// the flip lands in the header region) or alters the decoded data;
	// silently identical results would mean the corruption never
	// happened.
	if err == nil && rel.Rows() == clean {
		t.Fatal("corrupt payload decoded identically to the clean one")
	}
	if err != nil {
		var ce *ChunkError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *ChunkError", err)
		}
	}
}

// TestRetryAfterParsing covers both header forms and garbage.
func TestRetryAfterParsing(t *testing.T) {
	if d := parseRetryAfter("2"); d != 2*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	if d := parseRetryAfter("-1"); d != 0 {
		t.Fatalf("negative: %v", d)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d < 80*time.Second || d > 90*time.Second {
		t.Fatalf("http-date: %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past date: %v", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty: %v", d)
	}
}

// TestRetryAfterRaisesDelay: a 429 carrying Retry-After larger than
// the policy backoff stretches the inter-attempt delay.
func TestRetryAfterRaisesDelay(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo := newTestRepo(t, srv, func(r *HTTPRepository) {
		r.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	})
	hdr := http.Header{}
	hdr.Set("Retry-After", "1")
	a.set(func(a *archiveServer) {
		a.failN = 1
		a.status = http.StatusTooManyRequests
		a.header = hdr
	})
	t0 := time.Now()
	if _, err := repo.LoadChunk(seismic.TableD, 0); err != nil {
		t.Fatalf("load failed: %v", err)
	}
	if el := time.Since(t0); el < 900*time.Millisecond {
		t.Fatalf("retry came after %v, want >= ~1s (Retry-After honored)", el)
	}
}

// TestBackoffBounds: the computed backoff never exceeds MaxBackoff and
// grows from a BaseBackoff floor.
func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}.withDefaults()
	for attempt := 0; attempt < 40; attempt++ {
		for _, j := range []float64{0, 0.5, 0.999} {
			d := p.backoff(attempt, j)
			if d < p.BaseBackoff/2 || d > p.MaxBackoff {
				t.Fatalf("backoff(%d, %v) = %v out of [%v/2, %v]", attempt, j, d, p.BaseBackoff, p.MaxBackoff)
			}
		}
	}
}
