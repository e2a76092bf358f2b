package engine

import (
	"context"
	"fmt"
	"testing"

	"sommelier/internal/exec"
	"sommelier/internal/plan"
	"sommelier/internal/registrar"
	"sommelier/internal/sqlparse"
)

// tracedRun executes sql with operator tracing and returns the result,
// rendered bit for bit, and the plan annotated with each node's rows
// per stage.
func tracedRun(t *testing.T, db *DB, sql string) (result, counts string) {
	t.Helper()
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := statementArgs(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := db.compileStatement(st)
	if err != nil {
		t.Fatal(err)
	}
	trace := &exec.Trace{}
	res, err := exec.Execute(context.Background(), db.env, c.plan, exec.Options{Params: vals, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	counts = plan.RenderAnnotated(c.plan.Root, c.plan.Qf, func(n plan.Node) string {
		return fmt.Sprintf("%d/%d rows", trace.Rows(n, 1), trace.Rows(n, 2))
	})
	return renderBits(&Result{Result: res}), counts
}

// TestTracedRunMatchesUntraced: EXPLAIN ANALYZE's execution runs at the
// query's degree of parallelism, so a traced run returns exactly the
// untraced answer — floating-point aggregates included — and counts
// the same rows per node as a serial traced run.
func TestTracedRunMatchesUntraced(t *testing.T) {
	dir := genRepo(t, 2)
	const sql = `SELECT F.station, AVG(D.sample_value), STDDEV(D.sample_value) FROM dataview
		WHERE D.sample_time < '2010-01-02T00:00:00.000'
		GROUP BY F.station ORDER BY F.station`
	db, err := Open(dir, Config{Approach: registrar.Lazy, MaxParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := renderBits(res)
	res.Release()
	got, counts := tracedRun(t, db, sql)
	if got != want {
		t.Errorf("traced result diverges from the untraced one:\n%s\nvs\n%s", got, want)
	}
	serial, err := Open(dir, Config{Approach: registrar.Lazy, MaxParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if _, wantCounts := tracedRun(t, serial, sql); counts != wantCounts {
		t.Errorf("row counts at DOP 4:\n%s\nat DOP 1:\n%s", counts, wantCounts)
	}
}
