package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

const cacheT4 = `SELECT AVG(D.sample_value), COUNT(*) AS n FROM dataview
	WHERE F.station = 'FIAM'
	  AND D.sample_time >= '2010-01-01T00:00:00.000'
	  AND D.sample_time < '2010-01-02T00:00:00.000'`

// Literal-only statements share one compiled plan: the second query —
// with different literals — must hit the cache and reuse the same plan
// object.
func TestPlanCacheHitAcrossLiterals(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	res1, err := db.Query(cacheT4)
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanCacheHit {
		t.Fatal("first execution cannot hit the cache")
	}
	res2, err := db.Query(strings.Replace(cacheT4, "'FIAM'", "'ISK'", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCacheHit {
		t.Fatal("literal-variant statement missed the cache")
	}
	if res1.Plan != res2.Plan {
		t.Fatal("cache hit produced a different plan object")
	}
	st := db.PlanCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Different stations must still yield different answers (the
	// parameter values flow through the shared plan).
	n1 := storage.Int64s(res1.Rel.Flatten().Cols[1])[0]
	n2 := storage.Int64s(res2.Rel.Flatten().Cols[1])[0]
	if n1 == 0 || n2 == 0 {
		t.Fatalf("counts = %d, %d", n1, n2)
	}
}

// A prepared statement executes with zero sqlparse/plan.Build/opt work:
// the plan-cache counters must not move across executions.
func TestPreparedStatementSkipsCompilation(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	stmt, err := db.Prepare(`SELECT COUNT(*) AS n FROM dataview
		WHERE F.station = ? AND D.sample_time >= ? AND D.sample_time < ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 3 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	before := db.PlanCacheStats()
	var counts []int64
	for _, station := range []string{"FIAM", "ISK", "FIAM"} {
		res, err := stmt.Query(station, "2010-01-01T00:00:00.000", "2010-01-02T00:00:00.000")
		if err != nil {
			t.Fatal(err)
		}
		if res.Compile != 0 {
			t.Fatalf("prepared execution compiled for %v", res.Compile)
		}
		counts = append(counts, storage.Int64s(res.Rel.Flatten().Cols[0])[0])
	}
	after := db.PlanCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("prepared executions touched the compile path: %+v -> %+v", before, after)
	}
	if counts[0] != counts[2] {
		t.Fatalf("same arguments, different answers: %v", counts)
	}
	// The prepared answer matches the direct-SQL answer.
	direct, err := db.Query(cacheT4)
	if err != nil {
		t.Fatal(err)
	}
	if got := storage.Int64s(direct.Rel.Flatten().Cols[1])[0]; got != counts[0] {
		t.Fatalf("prepared %d != direct %d", counts[0], got)
	}
}

// Auto-parameterized prepared statements re-run with their original
// literals, or with fresh values.
func TestPreparedLiteralStatement(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.EagerPlain)
	stmt, err := db.Prepare(`SELECT COUNT(*) AS n FROM F WHERE station = 'FIAM'`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	nFIAM := storage.Int64s(res.Rel.Flatten().Cols[0])[0]
	res2, err := stmt.Query("ISK")
	if err != nil {
		t.Fatal(err)
	}
	nISK := storage.Int64s(res2.Rel.Flatten().Cols[0])[0]
	if nFIAM == 0 || nISK == 0 {
		t.Fatalf("counts = %d, %d", nFIAM, nISK)
	}
}

func TestPlanCacheBounded(t *testing.T) {
	dir := genRepo(t, 1)
	db, err := Open(dir, Config{Approach: registrar.EagerPlain, PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		// Distinct shapes (different LIMITs stay literal), so each is
		// its own cache entry.
		sql := fmt.Sprintf("SELECT station FROM F LIMIT %d", i+1)
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Size > 2 {
		t.Fatalf("cache exceeded its bound: %+v", st)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d", st.Capacity)
	}
}

// EXPLAIN flows through parser, engine and (via rows) every client
// path: the result holds the optimized plan and the applied-rule log.
func TestExplainStatement(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query("EXPLAIN " + cacheT4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Names[0] != "plan" {
		t.Fatalf("columns = %v", res.Names)
	}
	flat := res.Rel.Flatten()
	var text strings.Builder
	for i := 0; i < flat.Len(); i++ {
		text.WriteString(flat.Cols[0].(*storage.StringColumn).Value(i))
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"[Qf]", "rule pushdown", "rule joinorder", "scan(D"} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN output lacks %q:\n%s", want, out)
		}
	}
	// EXPLAIN and its query share one cache entry.
	res2, err := db.Query(cacheT4)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCacheHit {
		t.Fatal("query after EXPLAIN missed the cache")
	}
}

// EXPLAIN never executes, so a `?`-marker statement explains without
// arguments — and EXPLAIN ANALYZE, which does execute, takes them.
func TestExplainParameterizedStatement(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query(`EXPLAIN SELECT COUNT(*) AS n FROM F WHERE station = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Names[0] != "plan" {
		t.Fatalf("columns = %v", res.Names)
	}
	stmt, err := db.Prepare(`EXPLAIN SELECT COUNT(*) AS n FROM F WHERE station = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err != nil {
		t.Fatalf("prepared EXPLAIN: %v", err)
	}
	if out := analyzeText(t, db, `SELECT COUNT(*) AS n FROM F WHERE station = ?`, "FIAM"); !strings.Contains(out, "rows=1 ") {
		t.Fatalf("explain analyze output:\n%s", out)
	}
	if _, err := db.Query(`EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM F WHERE station = ?`); err == nil {
		t.Fatal("missing argument accepted")
	}
}

// Concurrent Prepare/Query of one normalized statement under -race:
// the cache must stay consistent and every execution must see the
// right answer for its own arguments.
func TestPlanCacheConcurrentStress(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	const workers = 8
	const iters = 20
	stations := []string{"FIAM", "ISK"}
	// Reference answers, serially.
	want := make(map[string]int64)
	for _, st := range stations {
		res, err := db.QueryArgs(`SELECT COUNT(*) AS n FROM dataview WHERE F.station = ?`, st)
		if err != nil {
			t.Fatal(err)
		}
		want[st] = storage.Int64s(res.Rel.Flatten().Cols[0])[0]
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := stations[(w+i)%len(stations)]
				var n int64
				if i%2 == 0 {
					stmt, err := db.Prepare(`SELECT COUNT(*) AS n FROM dataview WHERE F.station = ?`)
					if err != nil {
						errs <- err
						return
					}
					res, err := stmt.Query(st)
					if err != nil {
						errs <- err
						return
					}
					n = storage.Int64s(res.Rel.Flatten().Cols[0])[0]
				} else {
					res, err := db.Query(fmt.Sprintf(`SELECT COUNT(*) AS n FROM dataview WHERE F.station = '%s'`, st))
					if err != nil {
						errs <- err
						return
					}
					n = storage.Int64s(res.Rel.Flatten().Cols[0])[0]
				}
				if n != want[st] {
					errs <- fmt.Errorf("worker %d iter %d: %s count = %d, want %d", w, i, st, n, want[st])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
