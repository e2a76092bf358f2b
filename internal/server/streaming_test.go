package server

// Tests for the streaming response path: both wire formats must carry
// exactly the rows the materialized JSON response carries, a client
// that disconnects mid-stream must not leave chunk handles held, and the
// per-query memory ceiling must surface as 413.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/storage"
)

// streamTestQueries covers the result shapes the encoders must carry:
// strings, times, floats, aggregates, topk, empty results, EXPLAIN.
var streamTestQueries = []string{
	`SELECT station, COUNT(*) AS n FROM F GROUP BY station ORDER BY station`,
	`SELECT D.sample_time, D.sample_value FROM dataview
	   WHERE F.station = 'FIAM' AND D.sample_time < '2010-01-02T00:00:00.000' LIMIT 500`,
	`SELECT D.sample_value, D.sample_time FROM dataview
	   WHERE F.station = 'ISK' ORDER BY D.sample_value DESC LIMIT 20`,
	`SELECT station FROM F WHERE station = 'NO_SUCH_STATION'`,
	`EXPLAIN SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'`,
}

// postRaw posts a request body and returns the raw response without
// decoding, for the streaming formats.
func postRaw(t *testing.T, url string, body any) (*http.Response, []byte) {
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
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// decodeNDJSON parses a streamed NDJSON body back into the
// materialized response shape.
func decodeNDJSON(t *testing.T, data []byte) QueryResponse {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var out QueryResponse
	line := 0
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("line %d: %v: %s", line, err, raw)
		}
		switch {
		case probe["error"] != nil:
			t.Fatalf("mid-stream error: %s", raw)
		case probe["columns"] != nil:
			if err := json.Unmarshal(probe["columns"], &out.Columns); err != nil {
				t.Fatal(err)
			}
		case probe["rows"] != nil:
			var rows [][]any
			if err := json.Unmarshal(probe["rows"], &rows); err != nil {
				t.Fatal(err)
			}
			out.Rows = append(out.Rows, rows...)
		case probe["row_count"] != nil:
			var f resultFooter
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			out.RowCount, out.Stats = f.RowCount, f.Stats
		default:
			t.Fatalf("line %d: unrecognized: %s", line, raw)
		}
		line++
	}
	return out
}

// TestStreamingFormatsMatchMaterialized runs every query three ways —
// materialized JSON, streamed NDJSON, streamed columnar — and requires
// identical columns and cell-for-cell identical rows.
func TestStreamingFormatsMatchMaterialized(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for qi, sql := range streamTestQueries {
		resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", qi, resp.StatusCode, data)
		}
		var want QueryResponse
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}

		resp, data = postRaw(t, ts.URL, QueryRequest{SQL: sql, Stream: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d (ndjson): status %d: %s", qi, resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("query %d: content type %q", qi, ct)
		}
		nd := decodeNDJSON(t, data)
		sameResponse(t, qi, "ndjson", nd.Columns, nd.Rows, want)
		if nd.RowCount != want.RowCount {
			t.Fatalf("query %d: ndjson footer row_count %d, want %d", qi, nd.RowCount, want.RowCount)
		}

		resp, data = postRaw(t, ts.URL, QueryRequest{SQL: sql, Format: FormatColumnar})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d (columnar): status %d: %s", qi, resp.StatusCode, data)
		}
		col, err := DecodeColumnar(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if col.Err != "" {
			t.Fatalf("query %d: columnar error record: %s", qi, col.Err)
		}
		// Columnar time columns carry raw nanoseconds; format them the
		// way the JSON encoder does before comparing.
		rows := make([][]any, len(col.Rows))
		for ri, r := range col.Rows {
			row := make([]any, len(r))
			for ci := range r {
				if col.Kinds[ci] == storage.KindTime {
					row[ci] = WireTime(r[ci].(int64))
				} else {
					row[ci] = r[ci]
				}
			}
			rows[ri] = row
		}
		sameResponse(t, qi, "columnar", col.Columns, rows, want)
		if col.RowCount != want.RowCount {
			t.Fatalf("query %d: columnar footer row_count %d, want %d", qi, col.RowCount, want.RowCount)
		}
	}
}

// sameResponse compares decoded streaming output against the
// materialized response; numeric cells are normalized through JSON
// round-tripping on the want side already, so compare as rendered text.
func sameResponse(t *testing.T, qi int, format string, cols []string, rows [][]any, want QueryResponse) {
	t.Helper()
	if fmt.Sprint(cols) != fmt.Sprint(want.Columns) {
		t.Fatalf("query %d (%s): columns %v, want %v", qi, format, cols, want.Columns)
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("query %d (%s): %d rows, want %d", qi, format, len(rows), len(want.Rows))
	}
	for ri := range rows {
		g := fmt.Sprintf("%v", rows[ri])
		w := fmt.Sprintf("%v", want.Rows[ri])
		if g != w {
			t.Fatalf("query %d (%s): row %d = %s, want %s", qi, format, ri, g, w)
		}
	}
}

// TestStreamingDisconnectReleasesMemory opens a streaming response
// over a large result, reads a little, and slams the connection shut;
// the server must abort the query and release every chunk handle.
func TestStreamingDisconnectReleasesMemory(t *testing.T) {
	db := testDB(t)
	s := New(db, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryRequest{
		SQL: `SELECT D.sample_time, D.sample_value FROM dataview
		        WHERE D.sample_time < '2010-01-03T00:00:00.000'`,
		Stream: true,
	})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		// Read one chunk so the stream is genuinely flowing, then drop
		// the connection without draining.
		buf := make([]byte, 1024)
		if _, err := resp.Body.Read(buf); err != nil {
			t.Fatalf("first read: %v", err)
		}
		resp.Body.Close()
	}
	// The aborted queries unwind asynchronously after the disconnect.
	requireReleased(t, db)
}

// TestQuotaExceededIs413 wires a ceiling-limited DB into the server: a
// materializing query over the ceiling must fail crisply with 413 and
// the typed error message, and a streaming query must still succeed.
func TestQuotaExceededIs413(t *testing.T) {
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(1)
	cfg.SamplesPerFile = 600
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{
		Approach: registrar.Lazy, MaxParallel: 1, MaxQueryBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sql = `SELECT D.sample_time, D.sample_value FROM dataview
	               WHERE D.sample_time < '2010-01-02T00:00:00.000'`
	resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	var eresp errorResponse
	if err := json.Unmarshal(data, &eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Error == "" {
		t.Fatal("empty error body")
	}

	resp, data = postRaw(t, ts.URL, QueryRequest{SQL: sql, Stream: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming under ceiling: status %d: %s", resp.StatusCode, data)
	}
	nd := decodeNDJSON(t, data)
	if nd.RowCount == 0 {
		t.Fatal("streaming under ceiling delivered no rows")
	}
}

// TestJSONFailureAfterRowsKeepsStatus: the plain JSON body is buffered
// until the drain ends, so a query that trips the memory ceiling after
// the sink has rendered rows still answers 413 with the error envelope,
// never a 200 or a partial rows array. The ceiling is one the first
// pushed batch fits under and the whole result exceeds; the same
// request streamed succeeds, since a consuming sink charges nothing.
func TestJSONFailureAfterRowsKeepsStatus(t *testing.T) {
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(1)
	cfg.SamplesPerFile = 600
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(dir, engine.Config{
		Approach: registrar.Lazy, MaxParallel: 1, MaxQueryBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const sql = `SELECT D.sample_time, D.sample_value FROM dataview
	               WHERE D.sample_time < '2010-01-02T00:00:00.000'`

	// The premise: the JSON sink renders rows before the ceiling trips.
	sink := newStreamSink(httptest.NewRecorder(), jsonFormat{})
	_, err = db.QueryStream(context.Background(), sql, sink)
	putRenderer(sink.r)
	var qe *storage.QuotaError
	if !errors.As(err, &qe) || sink.rows == 0 {
		t.Fatalf("JSON sink rendered %d rows, err = %v; want rows, then a *storage.QuotaError", sink.rows, err)
	}

	s := New(db, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, data := post(t, ts.URL, QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	var eresp errorResponse
	if err := json.Unmarshal(data, &eresp); err != nil || eresp.Error == "" {
		t.Fatalf("error envelope %s: %v", data, err)
	}
	if bytes.Contains(data, []byte(`"rows"`)) {
		t.Fatalf("413 body carries rows: %s", data)
	}

	resp, data = postRaw(t, ts.URL, QueryRequest{SQL: sql, Stream: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed: status %d: %s", resp.StatusCode, data)
	}
	if nd := decodeNDJSON(t, data); nd.RowCount == 0 || nd.RowCount != len(nd.Rows) {
		t.Fatalf("streamed: row_count %d, %d rows", nd.RowCount, len(nd.Rows))
	}
}

// TestStreamedCounter pins the stats plumbing for streaming requests.
func TestStreamedCounter(t *testing.T) {
	s := New(testDB(t), Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts.URL, QueryRequest{SQL: `SELECT COUNT(*) AS n FROM F`})
	postRaw(t, ts.URL, QueryRequest{SQL: `SELECT COUNT(*) AS n FROM F`, Stream: true})
	postRaw(t, ts.URL, QueryRequest{SQL: `SELECT COUNT(*) AS n FROM F`, Format: FormatColumnar})

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Streamed != 2 {
		t.Fatalf("streamed = %d, want 2", st.Streamed)
	}
	if st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
}

// TestUnknownFormatRejected pins the 400 on a bad format name.
func TestUnknownFormatRejected(t *testing.T) {
	s := New(testDB(t), Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, data := post(t, ts.URL, QueryRequest{SQL: `SELECT COUNT(*) AS n FROM F`, Format: "msgpack"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
}
