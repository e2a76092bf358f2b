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
// until the client goes away, and count every request that arrives.
type archiveServer struct {
	mu      sync.Mutex
	failN   int         // fail this many upcoming requests, then serve
	failAll bool        // fail every request
	status  int         // failure status code
	header  http.Header // extra headers on failures
	hang    bool        // answer nothing until the client goes away
	reqs    int
	stalled chan struct{} // one send per request that hangs
	fs      http.Handler
}

func newArchiveServer(t *testing.T) (*httptest.Server, *archiveServer) {
	t.Helper()
	dir, _ := genRepo(t, 2)
	if err := WriteIndexFile(dir); err != nil {
		t.Fatal(err)
	}
	a := &archiveServer{
		status:  http.StatusInternalServerError,
		stalled: make(chan struct{}, fetchAttempts),
		fs:      http.FileServer(http.Dir(dir)),
	}
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
	hang := a.hang
	hdr := a.header
	a.mu.Unlock()
	if hang {
		select {
		case a.stalled <- struct{}{}:
		default:
		}
		<-r.Context().Done()
		return
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

// fakeClock is a Clock that moves only when a backoff sleeps or the
// test advances it, and records every sleep. With hold set, a sleep
// instead signals asleep and waits for its context to end.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
	hold   bool
	asleep chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC), asleep: make(chan struct{}, 1)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	hold := c.hold
	if !hold {
		c.now = c.now.Add(d)
	}
	c.mu.Unlock()
	if hold {
		c.asleep <- struct{}{}
		<-ctx.Done()
	}
	return ctx.Err()
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// newTestRepo discovers against the archive on a fake clock, with no
// fault injection.
func newTestRepo(t *testing.T, srv *httptest.Server) (*HTTPRepository, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	r := &HTTPRepository{BaseURL: srv.URL, Client: srv.Client(), Clock: clk}
	if err := r.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r, clk
}

// stallingClient cuts every attempt off after a short deadline.
func stallingClient(srv *httptest.Server) *http.Client {
	return &http.Client{Transport: srv.Client().Transport, Timeout: 20 * time.Millisecond}
}

// isTimeout reports whether err is an attempt cut off by its deadline.
func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// TestFetchRetriesTransientFailures: a chunk fetch survives transient
// 500s within its attempt budget, backing off between attempts, and
// Health counts the retries.
func TestFetchRetriesTransientFailures(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, clk := newTestRepo(t, srv)
	a.set(func(a *archiveServer) { a.failN = fetchAttempts - 1 })
	rel, err := repo.LoadChunk(seismic.TableD, 0)
	if err != nil {
		t.Fatalf("fetch did not survive %d transient failures: %v", fetchAttempts-1, err)
	}
	if rel.Rows() == 0 {
		t.Fatal("no rows decoded")
	}
	h := repo.Health()
	if h.Retries != fetchAttempts-1 || h.FetchErrors != fetchAttempts-1 {
		t.Fatalf("health = %+v, want %d retries and fetch errors", h, fetchAttempts-1)
	}
	sleeps := clk.slept()
	if len(sleeps) != fetchAttempts-1 {
		t.Fatalf("sleeps = %v, want one backoff per retry", sleeps)
	}
	for i, d := range sleeps {
		if lo := baseBackoff << uint(i) / 2; d < lo || d > 2*lo {
			t.Fatalf("backoff %d = %v, want in [%v, %v]", i, d, lo, 2*lo)
		}
	}
}

// TestFetchExhaustsRetries: a persistently failing chunk exhausts its
// attempts, reports them in the Degradable ChunkError, and enters
// quarantine so the next request does not touch the archive.
func TestFetchExhaustsRetries(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, _ := newTestRepo(t, srv)
	a.set(func(a *archiveServer) { a.failAll = true })

	before := a.requests()
	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChunkError", err)
	}
	if ce.Attempts != fetchAttempts || ce.Quarantined || a.requests()-before != fetchAttempts {
		t.Fatalf("ChunkError = %+v after %d requests, want %d attempts, not yet quarantined", ce, a.requests()-before, fetchAttempts)
	}
	if !ce.Degradable() {
		t.Fatal("ChunkError must be Degradable")
	}

	before = a.requests()
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
	repo, _ := newTestRepo(t, srv)
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

// TestQuarantineExpires: a quarantined chunk is answered from the
// quarantine until QuarantineTTL has passed, then retried against the
// archive, and can recover.
func TestQuarantineExpires(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, clk := newTestRepo(t, srv)
	a.set(func(a *archiveServer) { a.failAll = true })
	if _, err := repo.LoadChunk(seismic.TableD, 0); err == nil {
		t.Fatal("load succeeded against a failing archive")
	}
	if h := repo.Health(); h.Quarantined != 1 {
		t.Fatalf("health = %+v, want 1 quarantined", h)
	}

	// Archive heals; until the TTL lapses the chunk stays quarantined.
	a.set(func(a *archiveServer) { a.failAll = false })
	clk.Advance(QuarantineTTL)
	before := a.requests()
	var ce *ChunkError
	if _, err := repo.LoadChunk(seismic.TableD, 0); !errors.As(err, &ce) || !ce.Quarantined || a.requests() != before {
		t.Fatalf("load at the TTL: err = %v after %d requests, want quarantined ChunkError and none", err, a.requests()-before)
	}
	clk.Advance(time.Nanosecond)
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

// TestBreakerOpensAndRecovers: consecutive failures open the circuit;
// while open, requests are rejected without touching the archive and
// their chunks are not quarantined; after the cooldown one half-open
// probe goes out — a failed one re-opens the breaker, a successful one
// against the healed archive closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, clk := newTestRepo(t, srv)
	a.set(func(a *archiveServer) { a.failAll = true })

	// Chunk 0 uses up its attempts and is quarantined; chunk 1's
	// failures take the streak to the threshold, and its last attempt
	// is refused by the open breaker.
	for id := int64(0); id < 2; id++ {
		if _, err := repo.LoadChunk(seismic.TableD, id); err == nil {
			t.Fatal("load succeeded against a failing archive")
		}
	}
	h := repo.Health()
	if len(h.Hosts) != 1 || h.Hosts[0].State != BreakerOpen.String() || h.Hosts[0].Opens != 1 ||
		h.FetchErrors != breakerThreshold || h.Quarantined != 1 {
		t.Fatalf("health = %+v, want one open breaker after %d failures and chunk 0 quarantined", h, breakerThreshold)
	}

	// reject loads chunk 2 and wants a breaker rejection with no
	// request on the wire; it returns the rejection's remaining wait.
	reject := func(when string) time.Duration {
		t.Helper()
		before := a.requests()
		_, err := repo.LoadChunk(seismic.TableD, 2)
		var ce *ChunkError
		var open *CircuitOpenError
		if !errors.As(err, &ce) || !errors.As(ce.Err, &open) || ce.Attempts != 0 || ce.Quarantined {
			t.Fatalf("%s: err = %v, want a breaker rejection", when, err)
		}
		if a.requests() != before {
			t.Fatalf("%s: open breaker let a request through", when)
		}
		return open.RetryIn
	}
	wait := reject("while open")
	if wait <= 0 || wait > BreakerCooldown {
		t.Fatalf("rejection retries in %v, want within the %v cooldown", wait, BreakerCooldown)
	}
	clk.Advance(wait - time.Nanosecond)
	reject("just before the cooldown ends")
	if h := repo.Health(); h.Rejects != 3 || h.Quarantined != 1 {
		t.Fatalf("health = %+v: want 3 breaker rejects and only chunk 0 quarantined", h)
	}

	// Cooldown over, archive still down: one probe goes out, fails, and
	// re-opens the breaker for a fresh cooldown.
	clk.Advance(time.Nanosecond)
	before := a.requests()
	if _, err := repo.LoadChunk(seismic.TableD, 2); err == nil {
		t.Fatal("probe succeeded against a failing archive")
	}
	if h := repo.Health(); a.requests()-before != 1 || h.Hosts[0].State != BreakerOpen.String() || h.Hosts[0].Opens != 2 {
		t.Fatalf("failed probe: %d requests, health = %+v; want 1 and a re-opened breaker", a.requests()-before, h)
	}

	// Heal, let the cooldown lapse: the probe closes the breaker, and
	// the chunks a rejection refused load again.
	a.set(func(a *archiveServer) { a.failAll = false })
	clk.Advance(reject("after the failed probe"))
	before = a.requests()
	if _, err := repo.LoadChunk(seismic.TableD, 2); err != nil {
		t.Fatalf("probe after heal+cooldown failed: %v", err)
	}
	if h := repo.Health(); a.requests()-before != 1 || h.Hosts[0].State != BreakerClosed.String() {
		t.Fatalf("successful probe: %d requests, health = %+v; want 1 and a closed breaker", a.requests()-before, h)
	}
	if _, err := repo.LoadChunk(seismic.TableD, 1); err != nil {
		t.Fatalf("chunk refused by the breaker did not load after it closed: %v", err)
	}
}

// TestBackoffSleepHonorsCancellation: a caller cancelling mid-backoff
// gets its context error at once instead of waiting out the sleep,
// after one attempt and without quarantining the chunk.
func TestBackoffSleepHonorsCancellation(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, clk := newTestRepo(t, srv)
	clk.mu.Lock()
	clk.hold = true
	clk.mu.Unlock()
	a.set(func(a *archiveServer) { a.failAll = true })
	before := a.requests()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := repo.LoadChunkInto(ctx, seismic.TableD, 0, nil, nil)
		done <- err
	}()
	<-clk.asleep // the first attempt failed and the backoff began
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := a.requests() - before; n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if h := repo.Health(); h.Quarantined != 0 {
		t.Fatalf("health = %+v: a cancelled load quarantined its chunk", h)
	}
}

// TestAcquireCancelStopsFetch: a chunk store's load runs under the
// acquiring query's ctx, so an Acquire cancelled while the archive
// stalls returns at once, after one attempt, and leaves the chunk
// unquarantined.
func TestAcquireCancelStopsFetch(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, _ := newTestRepo(t, srv)
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
	<-a.stalled
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := a.requests() - before; n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if h := repo.Health(); h.Quarantined != 0 {
		t.Fatalf("health = %+v: a cancelled load quarantined its chunk", h)
	}
}

// TestPerAttemptTimeout: a stalled archive is cut off by the client's
// per-attempt deadline rather than hanging the fetch; every attempt
// times out and the chunk is quarantined.
func TestPerAttemptTimeout(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, _ := newTestRepo(t, srv)
	repo.Client = stallingClient(srv)
	a.set(func(a *archiveServer) { a.hang = true })

	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Attempts != fetchAttempts || !isTimeout(err) {
		t.Fatalf("stalled fetch: err = %v, want a timeout after %d attempts", err, fetchAttempts)
	}
	if h := repo.Health(); h.Quarantined != 1 {
		t.Fatalf("health = %+v, want the stalled chunk quarantined", h)
	}
}

// TestDiscoverTimeout: discovery flows through the same hardened fetch
// path, so a stalled index request is bounded too.
func TestDiscoverTimeout(t *testing.T) {
	srv, a := newArchiveServer(t)
	a.set(func(a *archiveServer) { a.hang = true })
	r := &HTTPRepository{BaseURL: srv.URL, Client: stallingClient(srv), Clock: newFakeClock()}
	err := r.Discover(context.Background())
	if !isTimeout(err) {
		t.Fatalf("stalled discovery: err = %v, want a timeout", err)
	}
	if n := a.requests(); n != fetchAttempts {
		t.Fatalf("stalled discovery made %d attempts, want %d", n, fetchAttempts)
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
	r := &HTTPRepository{BaseURL: huge.URL, Client: huge.Client(), Clock: newFakeClock()}
	err := r.Discover(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized index: err = %v, want size-cap error", err)
	}

	long := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("b", MaxIndexLine+1)+"\n")
	}))
	defer long.Close()
	r2 := &HTTPRepository{BaseURL: long.URL, Client: long.Client(), Clock: newFakeClock()}
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
	repo, _ := newTestRepo(t, srv)
	repo.SetFaults(fault.MustNew("mseed.decode=error:1", 7))

	_, err := repo.LoadChunk(seismic.TableD, 0)
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Quarantined {
		t.Fatalf("err = %v, want fresh (not-yet-quarantined) ChunkError", err)
	}
	before := a.requests()
	repo.SetFaults(nil)
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
	repo, _ := newTestRepo(t, srv)
	repo.SetFaults(fault.MustNew("registrar.http=corrupt:1", 3))

	rel, err := repo.LoadChunk(seismic.TableD, 0)
	repo.SetFaults(nil)
	clean, cleanErr := func() (int, error) {
		r2, _ := newTestRepo(t, srv)
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
		if h := repo.Health(); h.Quarantined != 1 {
			t.Fatalf("health = %+v, want the corrupt chunk quarantined", h)
		}
	}
}

// TestRetryAfterParsing covers both header forms, the cap and garbage.
func TestRetryAfterParsing(t *testing.T) {
	now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	date := func(d time.Duration) string { return now.Add(d).Format(http.TimeFormat) }
	for _, tc := range []struct {
		h    string
		want time.Duration
	}{
		{"2", 2 * time.Second},
		{" 7 ", 7 * time.Second},
		{"-1", 0},
		{"86400", AttemptTimeout},
		{"99999999999", AttemptTimeout},
		{"99999999999999999999999", AttemptTimeout},
		{"-99999999999999999999999", 0},
		{date(10 * time.Second), 10 * time.Second},
		{date(90 * time.Second), AttemptTimeout},
		{date(-time.Minute), 0},
		{"soon", 0},
		{"", 0},
	} {
		if d := parseRetryAfter(tc.h, now); d != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.h, d, tc.want)
		}
	}
}

// TestRetryAfterRaisesDelay: a 429 carrying Retry-After larger than
// the backoff stretches the inter-attempt delay to it.
func TestRetryAfterRaisesDelay(t *testing.T) {
	srv, a := newArchiveServer(t)
	repo, clk := newTestRepo(t, srv)
	hdr := http.Header{}
	hdr.Set("Retry-After", "1")
	a.set(func(a *archiveServer) {
		a.failN = 1
		a.status = http.StatusTooManyRequests
		a.header = hdr
	})
	if _, err := repo.LoadChunk(seismic.TableD, 0); err != nil {
		t.Fatalf("load failed: %v", err)
	}
	if got := clk.slept(); len(got) != 1 || got[0] != time.Second {
		t.Fatalf("sleeps = %v, want one of 1s (Retry-After honored)", got)
	}
}

// TestRetryAfterCapped: an archive answering the index request with
// 503 and a Retry-After of a day, or of more than a duration holds,
// delays discovery by AttemptTimeout, not by what it asked for.
func TestRetryAfterCapped(t *testing.T) {
	for _, ra := range []string{"86400", "99999999999"} {
		srv, a := newArchiveServer(t)
		hdr := http.Header{}
		hdr.Set("Retry-After", ra)
		a.set(func(a *archiveServer) {
			a.failN = 1
			a.status = http.StatusServiceUnavailable
			a.header = hdr
		})
		clk := newFakeClock()
		r := &HTTPRepository{BaseURL: srv.URL, Client: srv.Client(), Clock: clk}
		if err := r.Discover(context.Background()); err != nil {
			t.Fatalf("Retry-After %s: discovery failed: %v", ra, err)
		}
		if got := clk.slept(); len(got) != 1 || got[0] != AttemptTimeout {
			t.Fatalf("Retry-After %s: sleeps = %v, want one of %v", ra, got, AttemptTimeout)
		}
	}
}

// TestBackoffBounds: the computed backoff never exceeds maxBackoff and
// grows from a baseBackoff/2 floor.
func TestBackoffBounds(t *testing.T) {
	for attempt := 0; attempt < 40; attempt++ {
		for _, j := range []float64{0, 0.5, 0.999} {
			d := backoff(attempt, j)
			if d < baseBackoff/2 || d > maxBackoff {
				t.Fatalf("backoff(%d, %v) = %v out of [%v/2, %v]", attempt, j, d, baseBackoff, maxBackoff)
			}
		}
	}
}
