package engine

import (
	"fmt"
	"testing"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
)

// TestSegmentLoadTopUp: a one-segment query on a cold chunk loads that
// segment's rows and no more; a whole-day query on the chunk then widens
// it with one load, after which a scan of D, which needs every segment,
// is a cache hit.
func TestSegmentLoadTopUp(t *testing.T) {
	dir, man := genSegRepo(t)
	db, err := openChecked(t, dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var f seisgen.FileInfo
	for _, f = range man.Files {
		if len(f.Segments) >= 3 {
			break
		}
	}
	seg := f.Segments[len(f.Segments)/2]
	at := func(ns int64) string { return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000") }
	query := func(sql string) exec.Stats {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		return res.Stats
	}

	st := query(fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		f.Header.Station, at(seg.StartTime+int64(time.Second)), at(seg.StartTime+2*int64(time.Second))))
	if st.ChunksLoaded != 1 || st.RowsLoaded != int64(seg.SampleCount) {
		t.Fatalf("one-segment query loaded %d chunks, %d rows; want 1 chunk, %d rows", st.ChunksLoaded, st.RowsLoaded, seg.SampleCount)
	}
	if cs := db.ChunkStats(); cs.Partial != 1 || cs.Topups != 0 {
		t.Fatalf("after the narrow query: %+v", cs)
	}

	day := seg.StartTime - seg.StartTime%int64(24*time.Hour)
	st = query(fmt.Sprintf(`SELECT COUNT(*) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		f.Header.Station, at(day), at(day+int64(24*time.Hour))))
	if st.ChunksLoaded != 1 || st.RowsLoaded != int64(f.Samples) {
		t.Fatalf("whole-day query loaded %d chunks, %d rows; want 1 chunk, %d rows", st.ChunksLoaded, st.RowsLoaded, f.Samples)
	}
	if cs := db.ChunkStats(); cs.Partial != 0 || cs.Topups != 1 || cs.Resident != 1 {
		t.Fatalf("after the whole-day query: %+v", cs)
	}

	st = query(`SELECT COUNT(*) FROM D`)
	if st.CacheHits != 1 || st.ChunksLoaded != len(man.Files)-1 {
		t.Fatalf("scan of D: %d hits, %d loads; want 1 hit, %d loads", st.CacheHits, st.ChunksLoaded, len(man.Files)-1)
	}
}
