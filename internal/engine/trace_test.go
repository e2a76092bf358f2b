package engine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// analyzeText runs sql as EXPLAIN ANALYZE through db.QueryArgs and
// returns the plan rows as text.
func analyzeText(t *testing.T, db *DB, sql string, args ...any) string {
	t.Helper()
	res, err := db.QueryArgs("EXPLAIN ANALYZE "+sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	return planText(res)
}

// planText joins the one-column plan rows of an EXPLAIN result.
func planText(res *Result) string {
	var sb strings.Builder
	for _, b := range res.Rel.Batches() {
		for i := 0; i < b.Len(); i++ {
			sb.WriteString(storage.ValueAt(b.Cols[0], i).(string))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// tracedRun runs sql as EXPLAIN ANALYZE and returns the plan annotated
// with each node's rows per stage: batches and times, which depend on
// the cache state and the clock, are dropped, as is the stage line.
func tracedRun(t *testing.T, db *DB, sql string) (counts string) {
	t.Helper()
	text := analyzeText(t, db, sql)
	text = regexp.MustCompile(` batches=\d+ time=\S+ self=\S+`).ReplaceAllString(text, "")
	return regexp.MustCompile(`(?m)^-- stages:.*\n`).ReplaceAllString(text, "")
}

// TestTracedRunMatchesUntraced: EXPLAIN ANALYZE's root emits the rows
// the query returns, and a traced run on warm chunks counts the same
// rows per node as one that loads them cold.
func TestTracedRunMatchesUntraced(t *testing.T) {
	dir := genRepo(t, 2)
	const sql = `SELECT F.station, AVG(D.sample_value), STDDEV(D.sample_value) FROM dataview
		WHERE D.sample_time < '2010-01-02T00:00:00.000'
		GROUP BY F.station ORDER BY F.station`
	db, err := Open(dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Rows()
	counts := tracedRun(t, db, sql)
	if root := strings.Split(counts, "\n")[1]; !strings.HasSuffix(root, fmt.Sprintf("-- rows=%d", n)) {
		t.Errorf("root line %q does not emit the query's %d rows", root, n)
	}
	cold, err := Open(dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if wantCounts := tracedRun(t, cold, sql); counts != wantCounts {
		t.Errorf("row counts warm:\n%s\ncold:\n%s", counts, wantCounts)
	}
}
