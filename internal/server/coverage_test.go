package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sommelier/internal/storage"
)

// TestStatsChunkCoverage: the /stats "chunks" block counts the resident
// chunks that hold only some of their segments and the loads that
// widened one — after a query of one segment of a chunk, and after a
// query of its whole day.
func TestStatsChunkCoverage(t *testing.T) {
	db := testDB(t)
	res, err := db.Query(`SELECT file_id, start_time FROM S ORDER BY file_id, start_time`)
	if err != nil {
		t.Fatal(err)
	}
	flat := res.Rel.Flatten()
	files := append([]int64(nil), storage.Int64s(flat.Cols[0])...)
	starts := append([]int64(nil), storage.Int64s(flat.Cols[1])...)
	// The first chunk of two segments or more, and its first segment.
	i := 1
	for i < len(files) && files[i] != files[i-1] {
		i++
	}
	if i == len(files) {
		t.Fatal("no chunk of two segments")
	}
	first := starts[i-1]
	if res, err = db.Query(fmt.Sprintf(`SELECT station FROM F WHERE file_id = %d`, files[i])); err != nil {
		t.Fatal(err)
	}
	station := storage.ValueAt(res.Rel.Flatten().Cols[0], 0)

	s := New(db, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	at := func(ns int64) string { return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000") }
	query := func(from, to int64) {
		t.Helper()
		resp, data := post(t, ts.URL, QueryRequest{SQL: fmt.Sprintf(
			`SELECT COUNT(*) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
			station, at(from), at(to))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	chunks := func() (partial int, topups int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var st StatsResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st.Chunks.Partial, st.Chunks.Topups
	}

	query(first+int64(time.Second), first+2*int64(time.Second))
	if partial, topups := chunks(); partial != 1 || topups != 0 {
		t.Fatalf("after a one-segment query: partial %d, topups %d", partial, topups)
	}
	day := first - first%int64(24*time.Hour)
	query(day, day+int64(24*time.Hour))
	if partial, topups := chunks(); partial != 0 || topups != 1 {
		t.Fatalf("after a whole-day query: partial %d, topups %d", partial, topups)
	}
}
