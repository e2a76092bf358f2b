package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/registrar"
)

// TestExplainAnalyzePrepared: a prepared EXPLAIN ANALYZE binds fresh
// arguments per execution, runs the query they select, releases its
// rows, and carries the executed query's stats.
func TestExplainAnalyzePrepared(t *testing.T) {
	db := open(t, genRepo(t, 1), registrar.Lazy)
	defer db.Close()
	const q = `SELECT D.sample_value FROM dataview WHERE F.station = ? AND D.sample_time < ?`
	until := time.Date(2010, 1, 1, 12, 0, 0, 0, time.UTC)
	stmt, err := db.Prepare("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	for _, station := range []string{"FIAM", "NO_SUCH_STATION"} {
		plain, err := db.QueryArgs(q, station, until)
		if err != nil {
			t.Fatal(err)
		}
		n := plain.Rows()
		if station == "FIAM" && n == 0 {
			t.Fatal("FIAM has no rows to profile")
		}
		res, err := stmt.Query(station, until)
		if err != nil {
			t.Fatal(err)
		}
		text := planText(res)
		if root := strings.Split(text, "\n")[1]; !strings.Contains(root, fmt.Sprintf("-- rows=%d ", n)) {
			t.Errorf("%s: root line %q, want the query's %d rows", station, root, n)
		}
		if got, want := res.Stats.ChunksSelected > 0, n > 0; got != want {
			t.Errorf("%s: %d chunks selected for %d rows", station, res.Stats.ChunksSelected, n)
		}
		if h := db.ChunkStats().Handles; h != 0 {
			t.Errorf("%s: %d chunk handles held after EXPLAIN ANALYZE", station, h)
		}
	}
	if _, err := stmt.Query("FIAM"); err == nil {
		t.Fatal("missing argument accepted")
	}
}

// TestExplainAnalyzeCancelled: EXPLAIN ANALYZE runs under the caller's
// context, so a cancelled one stops it.
func TestExplainAnalyzeCancelled(t *testing.T) {
	db := open(t, genRepo(t, 1), registrar.Lazy)
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sql := "EXPLAIN ANALYZE " + tQueries()[4]
	if _, err := db.QueryContext(ctx, sql); !errors.Is(err, context.Canceled) {
		t.Fatalf("query: err = %v, want cancellation", err)
	}
	stmt, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.QueryContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("prepared: err = %v, want cancellation", err)
	}
}

// TestProfileSpansTile: a query's stage spans share their boundaries —
// each starts where the previous one ended, the first at the profile's
// start — and fit inside the wall time around the call; Compile and the
// stage durations of Stats are those spans.
func TestProfileSpansTile(t *testing.T) {
	// A cache smaller than a chunk: every execution loads.
	db, err := Open(genRepo(t, 1), Config{Approach: registrar.Lazy, CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	t0 := time.Now()
	res, err := db.QueryArgsContext(context.Background(), tQueries()[4])
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile
	var prev time.Duration
	for s := exec.Stage(0); s < exec.NumStages; s++ {
		start, end := prof.Span(s)
		if start != prev || end < start {
			t.Fatalf("%v spans [%v, %v], previous stage ended at %v", s, start, end, prev)
		}
		prev = end
	}
	if prev > wall {
		t.Fatalf("stages end at %v, after the call's %v", prev, wall)
	}
	span := func(s exec.Stage) time.Duration {
		start, end := prof.Span(s)
		return end - start
	}
	st := res.Stats
	if st.ChunksLoaded == 0 || span(exec.StageLoad) <= 0 || span(exec.StageStage2) <= 0 {
		t.Fatalf("loaded %d chunks in %v, stage 2 %v", st.ChunksLoaded, span(exec.StageLoad), span(exec.StageStage2))
	}
	if res.Compile != span(exec.StageCompile) || st.Stage1 != span(exec.StageStage1) ||
		st.Load != span(exec.StageLoad) || st.Stage2 != span(exec.StageStage2) {
		t.Fatalf("compile %v, stats %+v differ from the spans", res.Compile, st)
	}
}
