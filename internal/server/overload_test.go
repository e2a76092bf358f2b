package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
)

// testDBGoverned builds a repository and opens it with the global
// memory governor armed. samplesPerFile scales the data volume so
// streaming tests can produce response bodies larger than socket
// buffers.
func testDBGoverned(t testing.TB, samplesPerFile int, governorBytes int64) *engine.DB {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = samplesPerFile
	cfg.MeanSegments = 4
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{
		Approach:          registrar.Lazy,
		GlobalMemoryBytes: governorBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReadyz covers the readiness probe's three states: ready,
// not-ready while the admission queue is saturated, and not-ready
// while the memory governor is effectively exhausted — plus recovery
// once pressure drains.
func TestReadyz(t *testing.T) {
	db := testDBGoverned(t, 600, 1<<20)
	s := New(db, Config{Workers: 1, MaxWorkers: 1, QueueDepth: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 256)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	if code, body := get(); code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d %q, want 200", code, body)
	}

	// Saturate the admission queue: hold the single slot, park one
	// waiter (queue 1 of 2 ≥ half the bound).
	hold, err := s.ctrl.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		if tk, err := s.ctrl.Admit(context.Background()); err == nil {
			tk.Done(false)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.ctrl.Saturated() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "admission queue saturated") {
		t.Fatalf("saturated /readyz = %d %q, want 503 with queue reason", code, body)
	}
	hold.Done(false)
	<-queued
	if code, body := get(); code != http.StatusOK {
		t.Fatalf("drained /readyz = %d %q, want 200", code, body)
	}

	// Exhaust the governor directly: reserve nearly the whole pool.
	g := db.Governor()
	if g == nil {
		t.Fatal("governed DB has no governor")
	}
	if err := g.Reserve(context.Background(), g.Limit()); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "memory governor exhausted") {
		t.Fatalf("exhausted /readyz = %d %q, want 503 with governor reason", code, body)
	}
	g.Release(g.Limit())
	if code, body := get(); code != http.StatusOK {
		t.Fatalf("released /readyz = %d %q, want 200", code, body)
	}
}

// TestStreamingDisconnectRefundsGovernor runs a large streaming query,
// kills the client connection after the first response bytes, and
// requires every byte of the query's global memory reservation back:
// the governed quota must unwind to zero on the disconnect path, with
// no chunk handle left held.
func TestStreamingDisconnectRefundsGovernor(t *testing.T) {
	db := testDBGoverned(t, 5000, 256<<20)
	s := New(db, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A full scan streamed as NDJSON: megabytes of response, so the
	// server is still pushing batches (blocked on the TCP window) when
	// the client vanishes.
	body := `{"sql": "SELECT D.sample_time, D.sample_value FROM dataview WHERE D.sample_time >= '2010-01-01T00:00:00.000'", "stream": true}`

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /query HTTP/1.1\r\nHost: sommelier\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	// Read just the status line and first header bytes, then hang up
	// mid-stream.
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatalf("reading status line: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	g := db.Governor()
	deadline := time.Now().Add(10 * time.Second)
	for g.InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.InUse(); got != 0 {
		t.Fatalf("governor in-use = %d bytes after client disconnect, want 0", got)
	}
	if g.HighWater() == 0 {
		t.Fatal("governor high-water is zero: the streaming query never reserved, test exercised nothing")
	}
	// The handler goroutine may still be unwinding after the refund;
	// wait for its chunk handles too.
	requireReleased(t, db)
}

// TestAdmissionChaosNoLeaks arms the server.admit and exec.morsel
// fault points — synthetic admission sheds, stalled morsel claims —
// and drives a burst of short-deadline queries over both delivery
// paths. Every request must settle as 200, 429 (shed), 499 or 504
// (watchdog kill), and the shed/cancel paths must release every chunk
// handle and governor byte.
func TestAdmissionChaosNoLeaks(t *testing.T) {
	dir := t.TempDir()
	gen := seisgen.DefaultConfig(2)
	gen.SamplesPerFile = 600
	gen.MeanSegments = 4
	if _, err := seisgen.Generate(dir, gen); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{
		Approach: registrar.Lazy, MaxParallel: 2,
		GlobalMemoryBytes: 64 << 20,
		Faults:            "server.admit=error:0.2,exec.morsel=stall:0.3",
		FaultSeed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 2, MaxWorkers: 2, QueueDepth: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	heavy := `SELECT AVG(D.sample_value) FROM dataview WHERE D.sample_time >= '2010-01-01T00:00:00.000'`
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		counts = map[int]int{}
	)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := QueryRequest{SQL: heavy, TimeoutMS: 100}
			if i%2 == 1 {
				req.Stream = true
			}
			resp, _ := post(t, ts.URL, req)
			mu.Lock()
			counts[resp.StatusCode]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, 499, http.StatusGatewayTimeout:
		default:
			t.Fatalf("unexpected status under chaos: %d (all: %v)", code, counts)
		}
	}
	// The schedule makes both shed paths statistically certain over 24
	// requests (admit errors at 20%, 30% of morsel claims stalled past
	// the 100ms deadline).
	if counts[http.StatusTooManyRequests] == 0 && counts[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("chaos schedule never shed or killed a request: %v", counts)
	}
	if got := db.Governor().InUse(); got != 0 {
		t.Fatalf("governor in-use = %d after chaos burst, want 0", got)
	}
	requireReleased(t, db)
}

// TestOverloadSmoke is the CI overload leg: 64 clients hammer a
// 4-worker server. Every request must settle as 200 or 429, queue
// waits must stay bounded, and nothing may leak.
func TestOverloadSmoke(t *testing.T) {
	db := testDBGoverned(t, 600, 64<<20)
	s := New(db, Config{Workers: 4, MaxWorkers: 4, QueueDepth: 8, DefaultTimeout: 30 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	heavy := `SELECT AVG(D.sample_value) FROM dataview WHERE D.sample_time >= '2010-01-01T00:00:00.000'`
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		counts = map[int]int{}
	)
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, _ := post(t, ts.URL, QueryRequest{SQL: heavy})
				mu.Lock()
				counts[resp.StatusCode]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for code := range counts {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status under overload: %d (all: %v)", code, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded under overload: %v", counts)
	}
	st := s.ctrl.Snapshot()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("admission state after drain: %+v", st)
	}
	if st.WaitP99US > (2 * time.Second).Microseconds() {
		t.Fatalf("queue wait p99 = %dus, want bounded by 2s", st.WaitP99US)
	}
	if got := db.Governor().InUse(); got != 0 {
		t.Fatalf("governor in-use = %d after overload, want 0", got)
	}
	requireReleased(t, db)
}
