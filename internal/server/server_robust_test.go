package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
)

// faultyDB opens a lazy database whose every chunk flight fails with
// an injected (Degradable) fault: strict queries over actual data
// fail, degraded ones answer with warnings.
func faultyDB(t testing.TB) *engine.DB {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = 600
	cfg.MeanSegments = 4
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{
		Approach: registrar.Lazy, Faults: "exec.flight=error:1", FaultSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const chunkQuery = `SELECT COUNT(*) AS n FROM dataview
  WHERE F.station = 'FIAM'
    AND D.sample_time >= '2010-01-01T00:00:00.000'
    AND D.sample_time < '2010-01-02T00:00:00.000'`

func boolPtr(b bool) *bool { return &b }

// TestNegativeTimeoutRejected: timeout_ms < 0 is a client error, not a
// silent fallback to the default.
func TestNegativeTimeoutRejected(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts.URL, QueryRequest{SQL: "SELECT 1", TimeoutMS: -5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_ms=-5: status %d body %s", resp.StatusCode, data)
	}
	var eb errorResponse
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "timeout_ms") {
		t.Fatalf("error %q does not name timeout_ms", eb.Error)
	}
}

// TestOversizedBodyRejected: a request body over the cap answers 413
// with the error envelope before the request is counted or admitted; a
// body just under the cap is still served.
func TestOversizedBodyRejected(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := `SELECT COUNT(*) AS n FROM F`
	resp, data := post(t, ts.URL, QueryRequest{SQL: sql + strings.Repeat(" ", 2*maxRequestBytes)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d body %.200s", resp.StatusCode, data)
	}
	var eb errorResponse
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Fatalf("oversized body: not an error envelope (%v): %.200s", err, data)
	}
	if got, ad := s.received.Load(), s.ctrl.Snapshot(); got != 0 || ad.Admitted != 0 {
		t.Fatalf("oversized body was counted: received %d, admitted %d", got, ad.Admitted)
	}

	resp, data = post(t, ts.URL, QueryRequest{SQL: sql + strings.Repeat(" ", maxRequestBytes-1024)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body under the cap: status %d body %.200s", resp.StatusCode, data)
	}
}

// TestEffectiveTimeoutInStats: the response reports the deadline the
// request actually ran under, and flags a capped request.
func TestEffectiveTimeoutInStats(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1, DefaultTimeout: 2 * time.Second, MaxTimeout: 3 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := `SELECT station, COUNT(*) AS n FROM F WHERE station = 'FIAM' GROUP BY station`

	resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Stats.TimeoutMS != 2000 || qr.Stats.TimeoutCapped {
		t.Fatalf("default stats = %+v, want timeout_ms 2000 uncapped", qr.Stats)
	}

	resp, data = post(t, ts.URL, QueryRequest{SQL: sql, TimeoutMS: 999999})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Stats.TimeoutMS != 3000 || !qr.Stats.TimeoutCapped {
		t.Fatalf("capped stats = %+v, want timeout_ms 3000 capped", qr.Stats)
	}
}

// TestDegradedRequestJSON: a degraded request over a failing archive
// succeeds with warnings in the JSON body; the same request without
// the flag fails.
func TestDegradedRequestJSON(t *testing.T) {
	s := New(faultyDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Strict (server default): the injected faults fail the query.
	resp, _ := post(t, ts.URL, QueryRequest{SQL: chunkQuery})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("strict query over failing chunks returned 200")
	}

	// Degraded: 200 with warnings.
	resp, data := post(t, ts.URL, QueryRequest{SQL: chunkQuery, Degraded: boolPtr(true)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Warnings) == 0 || !qr.Stats.Degraded || qr.Stats.ChunksSkipped != len(qr.Warnings) {
		t.Fatalf("degraded response missing warnings: stats=%+v warnings=%d", qr.Stats, len(qr.Warnings))
	}
	for _, w := range qr.Warnings {
		if w.Table == "" || w.Reason == "" {
			t.Fatalf("warning %+v incomplete", w)
		}
	}

	// /stats counts the degraded completion.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded < 1 {
		t.Fatalf("stats degraded = %d, want >= 1", st.Degraded)
	}
	if st.Source != nil {
		t.Fatalf("local repository reported source health %+v", st.Source)
	}
}

// TestDegradedNDJSONFooter: the streaming NDJSON footer carries the
// warnings and the effective timeout.
func TestDegradedNDJSONFooter(t *testing.T) {
	s := New(faultyDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{SQL: chunkQuery, Stream: true, Degraded: boolPtr(true)})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lastLine string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lastLine = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var footer resultFooter
	if err := json.Unmarshal([]byte(lastLine), &footer); err != nil {
		t.Fatalf("footer %q: %v", lastLine, err)
	}
	if len(footer.Warnings) == 0 || !footer.Stats.Degraded {
		t.Fatalf("footer = %+v, want degraded with warnings", footer)
	}
	if footer.Stats.TimeoutMS <= 0 {
		t.Fatalf("footer stats = %+v, want effective timeout_ms", footer.Stats)
	}
}

// TestDegradedColumnarFooter: the SOMW wire footer carries the
// warnings too.
func TestDegradedColumnarFooter(t *testing.T) {
	s := New(faultyDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{SQL: chunkQuery, Format: FormatColumnar, Degraded: boolPtr(true)})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res, err := DecodeColumnar(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("stream error: %s", res.Err)
	}
	if len(res.Warnings) == 0 || !res.Stats.Degraded {
		t.Fatalf("columnar result = stats %+v warnings %d, want degraded with warnings", res.Stats, len(res.Warnings))
	}
}

// TestStatsCountersSettle: every request /stats counts as received is
// settled exactly once as completed, failed or rejected, whatever its
// outcome. A request refused before it is admitted for execution — a
// bad body, no "sql", a negative timeout_ms, an unknown format — is
// counted nowhere.
func TestStatsCountersSettle(t *testing.T) {
	s := New(faultyDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const good = `SELECT station, COUNT(*) AS n FROM F GROUP BY station`
	for _, c := range []struct {
		req    QueryRequest
		status int
	}{
		{QueryRequest{SQL: good}, http.StatusOK},
		{QueryRequest{SQL: good, Stream: true}, http.StatusOK},
		{QueryRequest{SQL: good, Format: FormatColumnar}, http.StatusOK},
		{QueryRequest{SQL: chunkQuery, Degraded: boolPtr(true)}, http.StatusOK},
		{QueryRequest{SQL: chunkQuery}, http.StatusInternalServerError},
		{QueryRequest{SQL: chunkQuery, Stream: true}, http.StatusInternalServerError},
		{QueryRequest{SQL: "SELECT FROM nowhere ("}, http.StatusBadRequest},
		{QueryRequest{SQL: good, Format: "msgpack"}, http.StatusBadRequest},
		{QueryRequest{SQL: good, Format: "msgpack", Stream: true}, http.StatusBadRequest},
		{QueryRequest{}, http.StatusBadRequest},
		{QueryRequest{SQL: good, TimeoutMS: -1}, http.StatusBadRequest},
	} {
		if resp, data := post(t, ts.URL, c.req); resp.StatusCode != c.status {
			t.Fatalf("%+v: status %d, want %d: %s", c.req, resp.StatusCode, c.status, data)
		}
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Received != 7 || st.Completed != 4 || st.Failed != 3 || st.Rejected != 0 {
		t.Fatalf("received %d, completed %d, failed %d, rejected %d; want 7 = 4 + 3 + 0",
			st.Received, st.Completed, st.Failed, st.Rejected)
	}
	if st.Received != st.Completed+st.Failed+st.Rejected {
		t.Fatalf("received %d != completed %d + failed %d + rejected %d",
			st.Received, st.Completed, st.Failed, st.Rejected)
	}
}
