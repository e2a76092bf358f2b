package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/table"
)

func testDB(t testing.TB) *engine.DB {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = 600
	cfg.MeanSegments = 4
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// requireReleased fails t unless db's live chunk handles and governor
// bytes in use both drain to zero: every query has finished and every
// result is released. It polls, since the handler of a dropped client
// unwinds asynchronously.
func requireReleased(t testing.TB, db *engine.DB) {
	t.Helper()
	var handles, inUse int64
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		handles, inUse = db.ChunkStats().Handles, 0
		if g := db.Governor(); g != nil {
			inUse = g.InUse()
		}
		if handles == 0 && inUse == 0 || time.Now().After(deadline) {
			break
		}
	}
	if handles != 0 || inUse != 0 {
		t.Errorf("%d chunk handles and %d governor bytes still held", handles, inUse)
	}
}

func post(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestQueryEndpoint(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts.URL, QueryRequest{
		SQL: `SELECT station, COUNT(*) AS n FROM F WHERE station = 'FIAM' GROUP BY station`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || len(qr.Columns) != 2 {
		t.Fatalf("unexpected result: %+v", qr)
	}
	if qr.Rows[0][0] != "FIAM" {
		t.Fatalf("row = %v", qr.Rows[0])
	}
	if qr.Stats.QueryType != 1 {
		t.Fatalf("query type = %d", qr.Stats.QueryType)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := post(t, ts.URL, QueryRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL, QueryRequest{SQL: "SELECT FROM nowhere ("}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken sql: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", resp.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	post(t, ts.URL, QueryRequest{SQL: `SELECT station, COUNT(*) AS n FROM F GROUP BY station`})
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Received < 1 || st.Completed < 1 {
		t.Fatalf("stats did not count the query: %+v", st)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.Approach != "lazy" {
		t.Fatalf("approach = %q", st.Approach)
	}
}

// TestSixteenConcurrentClients is the service-level acceptance check:
// 16 clients hammer one sommelierd with lazy-loading queries whose
// chunk sets overlap, and every response must carry the same correct
// answer a lone client gets.
func TestSixteenConcurrentClients(t *testing.T) {
	const clients, rounds = 16, 3
	s := New(testDB(t), Config{Workers: 4, QueueDepth: clients * 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queries := []string{
		`SELECT AVG(D.sample_value) FROM dataview
		   WHERE F.station = 'FIAM' AND D.sample_time >= '2010-01-01T00:00:00.000'
		     AND D.sample_time < '2010-01-02T00:00:00.000'`,
		`SELECT COUNT(*) AS n FROM dataview
		   WHERE F.station = 'ISK' AND D.sample_time >= '2010-01-01T00:00:00.000'
		     AND D.sample_time < '2010-01-03T00:00:00.000'`,
		`SELECT station, COUNT(*) AS n FROM F WHERE station = 'AQU' GROUP BY station`,
	}
	// Single-client baseline.
	want := make([]string, len(queries))
	for i, sql := range queries {
		resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %d: status %d: %s", i, resp.StatusCode, data)
		}
		var qr QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(qr.Rows)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(queries)
				resp, data := post(t, ts.URL, QueryRequest{SQL: queries[i], TimeoutMS: 60_000})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(data, &qr); err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(qr.Rows); got != want[i] {
					t.Errorf("client %d query %d: got %s want %s", c, i, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st StatsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if wantN := int64(len(queries) + clients*rounds); st.Completed != wantN {
		t.Fatalf("completed = %d, want %d (%+v)", st.Completed, wantN, st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("work left behind: %+v", st)
	}
}

// TestOverloadRejects saturates the admission controller — the single
// concurrency slot held and the one-deep queue occupied — and checks
// that excess HTTP load sheds with 429 + Retry-After instead of
// queueing without bound (or answering a retryable condition with a
// 5xx), then that capacity is admitted again once the holders drain.
func TestOverloadRejects(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 1, MaxWorkers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single slot directly, then park a second admit in the
	// queue so the controller is deterministically saturated before the
	// burst fires (real queries on the tiny test corpus finish in
	// single-digit milliseconds — far too fast to hold the queue full).
	hold, err := s.ctrl.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		tk, err := s.ctrl.Admit(context.Background())
		if err == nil {
			tk.Done(false)
		}
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.ctrl.Snapshot().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.ctrl.Snapshot().Queued != 1 {
		t.Fatal("queue slot never filled")
	}

	heavy := `SELECT AVG(D.sample_value) FROM dataview WHERE D.sample_time >= '2010-01-01T00:00:00.000'`
	const burst = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses []int
		retries  []string
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts.URL, QueryRequest{SQL: heavy})
			mu.Lock()
			statuses = append(statuses, resp.StatusCode)
			if resp.StatusCode == http.StatusTooManyRequests {
				retries = append(retries, resp.Header.Get("Retry-After"))
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, code := range statuses {
		if code != http.StatusTooManyRequests {
			t.Fatalf("status %d against a saturated server, want 429", code)
		}
	}
	if len(retries) != burst {
		t.Fatalf("shed %d of %d", len(retries), burst)
	}
	for _, ra := range retries {
		if n, err := strconv.Atoi(ra); err != nil || n < 1 {
			t.Fatalf("Retry-After = %q, want integer >= 1", ra)
		}
	}

	// Drain the holders: the parked admit dispatches, and a fresh query
	// is admitted and served.
	hold.Done(false)
	if err := <-queued; err != nil {
		t.Fatalf("queued admit failed: %v", err)
	}
	resp, body := post(t, ts.URL, QueryRequest{SQL: heavy})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d: %s", resp.StatusCode, body)
	}
}

func TestQueryWithParams(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts.URL, QueryRequest{
		SQL:    `SELECT COUNT(*) AS n FROM F WHERE station = ? AND file_id >= ?`,
		Params: []any{"FIAM", 0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 {
		t.Fatalf("rows = %d", qr.RowCount)
	}
	// Wrong arity is the client's fault: 400.
	resp, data = post(t, ts.URL, QueryRequest{
		SQL:    `SELECT COUNT(*) AS n FROM F WHERE station = ?`,
		Params: []any{},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing params: status %d: %s", resp.StatusCode, data)
	}
}

func TestParseErrorReportsPosition(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts.URL, QueryRequest{SQL: `SELECT station FRM F`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er struct {
		Error    string `json:"error"`
		Position *int   `json:"position"`
	}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Position == nil {
		t.Fatalf("no position in %s", data)
	}
	if want := len("SELECT station "); *er.Position != want {
		t.Fatalf("position = %d, want %d (%s)", *er.Position, want, data)
	}
}

func TestStatsReportPlanCache(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sql := `SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'`
	for i := 0; i < 3; i++ {
		resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var qr QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !qr.Stats.PlanCacheHit {
			t.Fatalf("request %d missed the plan cache", i)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Hits < 2 || st.PlanCache.Misses < 1 || st.PlanCache.Size < 1 {
		t.Fatalf("plan cache stats = %+v", st.PlanCache)
	}
}

func TestExplainOverHTTP(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts.URL, QueryRequest{
		SQL: `EXPLAIN SELECT AVG(D.sample_value) FROM dataview WHERE F.station = 'FIAM'
		      AND D.sample_time < '2010-01-02T00:00:00.000'`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Columns) != 1 || qr.Columns[0] != "plan" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	text := fmt.Sprintf("%v", qr.Rows)
	for _, want := range []string{"[Qf]", "rule joinorder"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN output lacks %q:\n%s", want, text)
		}
	}
}

// TestExplainAnalyzeOverHTTP: EXPLAIN ANALYZE answers in JSON and in
// the columnar format with the profiled plan as rows, and its footer
// reports the executed query's stages.
func TestExplainAnalyzeOverHTTP(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := QueryRequest{
		SQL: `EXPLAIN ANALYZE SELECT AVG(D.sample_value) FROM dataview WHERE F.station = ?
		      AND D.sample_time < '2010-01-02T00:00:00.000'`,
		Params: []any{"FIAM"},
	}
	check := func(format string, cols []string, rows [][]any, st QueryStats) {
		t.Helper()
		if len(cols) != 1 || cols[0] != "plan" {
			t.Fatalf("%s: columns = %v", format, cols)
		}
		text := fmt.Sprintf("%v", rows)
		for _, want := range []string{"[Qf]", "stage1: rows=", "time=", "-- stages: compile=", "rule joinorder"} {
			if !strings.Contains(text, want) {
				t.Fatalf("%s: EXPLAIN ANALYZE output lacks %q:\n%s", format, want, text)
			}
		}
		if st.Stage2US <= 0 || st.ChunksSelected == 0 {
			t.Fatalf("%s: footer stats %+v do not describe the executed query", format, st)
		}
	}
	resp, data := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	check("json", qr.Columns, qr.Rows, qr.Stats)
	req.Format = FormatColumnar
	resp, data = post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar status %d: %s", resp.StatusCode, data)
	}
	col, err := DecodeColumnar(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	check("columnar", col.Columns, col.Rows, col.Stats)
	requireReleased(t, db)
}

// TestRowCountMatchesRows: row_count must be taken before the result is
// released — Release empties its relation — for one-batch results (a
// T3 join, a one-batch D export) and larger ones alike.
func TestRowCountMatchesRows(t *testing.T) {
	db := testDB(t)
	err := db.Catalog().AddView(&table.View{
		Name:   "windowdataview_md",
		Tables: []string{seismic.TableF, seismic.TableH},
		Joins: []table.JoinPred{
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, sql := range map[string]string{
		"T3": `SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md
		       WHERE F.station = 'FIAM' AND H.window_start_ts >= '2010-01-01T00:00:00.000'
		         AND H.window_start_ts < '2010-01-01T12:00:00.000'`,
		"D export": `SELECT D.sample_time, D.sample_value FROM dataview
		       WHERE F.station = 'FIAM' AND D.sample_time >= '2010-01-01T00:00:00.000'
		         AND D.sample_time < '2010-01-02T00:00:00.000'`,
	} {
		resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, data)
		}
		var qr QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Rows) < 2 || qr.RowCount != len(qr.Rows) {
			t.Fatalf("%s: row_count %d with %d rows, want equal and > 1", name, qr.RowCount, len(qr.Rows))
		}
	}
}
