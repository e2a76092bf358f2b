package engine

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

func TestConcurrentQueries(t *testing.T) {
	dir := genRepo(t, 3)
	db := open(t, dir, registrar.Lazy)
	sqls := []string{
		tQueries()[1],
		tQueries()[2],
		tQueries()[4],
		tQueries()[5],
	}
	// Establish reference answers serially on a second database.
	ref := open(t, dir, registrar.Lazy)
	want := make(map[string]string)
	for _, sql := range sqls {
		res, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = digest(res.Rel).String()
		res.Release()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				sql := sqls[(g+i)%len(sqls)]
				res, err := db.Query(sql)
				if err != nil {
					errs <- err
					return
				}
				got := digest(res.Rel).String()
				res.Release()
				if got != want[sql] {
					errs <- errMismatch(sql)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch string

func (e errMismatch) Error() string { return "concurrent answer mismatch for " + string(e) }

func TestFileVanishesAfterRegistration(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	// Delete every chunk file after metadata registration: the
	// metadata queries keep working, actual-data queries surface a
	// chunk-access error.
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return os.Remove(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(tQueries()[1]); err != nil {
		t.Fatalf("metadata query failed after file removal: %v", err)
	}
	if _, err := db.Query(tQueries()[4]); err == nil {
		t.Fatal("vanished chunk not surfaced")
	}
}

func TestQueryContextCancellation(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, tQueries()[4]); err == nil {
		t.Fatal("cancelled context not honoured")
	}
	// The database remains usable afterwards.
	if _, err := db.Query(tQueries()[4]); err != nil {
		t.Fatal(err)
	}
}

func TestSQLErrorsSurfaceCleanly(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	bad := []string{
		"not sql at all",
		"SELECT nosuchcol FROM F",
		"SELECT station FROM nosuchtable",
		"SELECT station, AVG(file_id) FROM F", // ungrouped column
		"SELECT AVG(station) FROM F",          // aggregate over string
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
	// A failed query must not poison later queries.
	if _, err := db.Query(tQueries()[1]); err != nil {
		t.Fatal(err)
	}
}

func TestOrderByLimitThroughEngine(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query(`
		SELECT station, uri FROM F
		WHERE channel = 'HHZ' OR channel = 'BHE'
		ORDER BY station DESC, uri ASC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 3 {
		t.Fatalf("rows = %d", res.Rows())
	}
	flat := res.Rel.Flatten()
	col := flat.Cols[0].(*storage.StringColumn)
	for i := 1; i < flat.Len(); i++ {
		if col.Value(i-1) < col.Value(i) {
			t.Fatal("not descending by station")
		}
	}
}

func TestSampleThroughSQL(t *testing.T) {
	dir := genRepo(t, 4)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query(`
		SELECT COUNT(*) AS n FROM dataview
		WHERE F.station = 'FIAM' SAMPLE 50`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SampleFraction != 0.5 {
		t.Fatalf("fraction = %v", res.Stats.SampleFraction)
	}
	n := storage.Int64s(res.Rel.Flatten().Cols[0])[0]
	// Scaling by the inverse fraction estimates the full count.
	est := float64(n) / res.Stats.SampleFraction
	full, err := db.Query(`SELECT COUNT(*) AS n FROM dataview WHERE F.station = 'FIAM'`)
	if err != nil {
		t.Fatal(err)
	}
	fullN := float64(storage.Int64s(full.Rel.Flatten().Cols[0])[0])
	if est < fullN*0.5 || est > fullN*1.5 {
		t.Fatalf("scaled estimate %v far from %v", est, fullN)
	}
}

func TestExplainAnalyze(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query("EXPLAIN ANALYZE " + tQueries()[4])
	if err != nil {
		t.Fatal(err)
	}
	out := planText(res)
	res.Release()
	for _, want := range []string{"[Qf]", "stage1: rows=", "rows=", "batches=", "time=", "self=",
		"-- rule ", "-- stages: compile=", " load=", " stage2=", "chunks:", "scan(D"} {
		if !containsStr(out, want) {
			t.Fatalf("explain analyze lacks %q:\n%s", want, out)
		}
	}
	if res.Stats.ChunksSelected == 0 || res.Stats.Stage2 <= 0 {
		t.Fatalf("EXPLAIN ANALYZE result lacks its query's stats: %+v", res.Stats)
	}
	if _, err := db.Query("EXPLAIN ANALYZE not sql"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func containsStr(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
