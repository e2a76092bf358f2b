package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/registrar"
)

// The runaway-query watchdog acceptance suite: a query that blows its
// context deadline must be cancelled at a morsel boundary — within the
// deadline plus one morsel of grace, not after finishing its drains —
// on both the materialized and streaming paths, surface a typed
// *exec.DeadlineError, and release every chunk handle and governor byte
// on the way out.
// Injected exec.morsel stalls stand in for the runaway work: without
// the watchdog each stalled claim would hold the query for 30s.

// openWatchdog opens the repository with a deterministic exec.morsel
// schedule and an ingestion fan-out of 2, regardless of GOMAXPROCS.
func openWatchdog(t *testing.T, dir, faults string) *DB {
	t.Helper()
	db, err := openChecked(t, dir, Config{
		Approach: registrar.Lazy, MaxParallel: 2,
		Faults: faults, FaultSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// requireDeadlineKill asserts the watchdog contract on a query error:
// typed, unwrappable to context.DeadlineExceeded, with a sane elapsed
// stamp.
func requireDeadlineKill(t *testing.T, err error) *exec.DeadlineError {
	t.Helper()
	if err == nil {
		t.Fatal("deadlined query succeeded")
	}
	var de *exec.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *exec.DeadlineError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
	}
	if de.Elapsed <= 0 {
		t.Fatalf("DeadlineError.Elapsed = %v, want > 0", de.Elapsed)
	}
	return de
}

// TestWatchdogCancelsStalledMorsel wedges every morsel claim behind a
// 30s injected stall: the 50ms deadline must cancel the query at that
// first claim, promptly, on both delivery paths.
func TestWatchdogCancelsStalledMorsel(t *testing.T) {
	dir := genRepo(t, 2)
	sql := tQueries()[4]

	for _, streaming := range []bool{false, true} {
		t.Run(fmt.Sprintf("streaming=%v", streaming), func(t *testing.T) {
			db := openWatchdog(t, dir, "exec.morsel=stall:1")
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			t0 := time.Now()
			var err error
			if streaming {
				_, err = db.QueryStream(ctx, sql, new(rowDigest))
			} else {
				_, err = db.QueryContext(ctx, sql)
			}
			wall := time.Since(t0)
			requireDeadlineKill(t, err)
			// One morsel of grace: the stalled claim honors the context,
			// so the whole query ends at the deadline plus scheduling
			// noise — nowhere near the 30s the stall would otherwise pin.
			if wall > time.Second {
				t.Fatalf("deadlined query took %v, want ~50ms", wall)
			}
			requireReleased(t, db)
		})
	}
}

// TestWatchdogCancelsMidQuery delays every morsel claim by 40ms under
// a 50ms deadline: the first claim succeeds and does real work
// (chunk handles and governor bytes held), the second expires mid-wait
// — the watchdog must cancel between morsels and the error paths must
// release everything the first morsel took.
func TestWatchdogCancelsMidQuery(t *testing.T) {
	dir := genRepo(t, 2)

	queries := map[string]string{
		"aggregate": tQueries()[4],
		// ORDER BY forces a Sort pipeline breaker, whose internal drain
		// runs under the breaker's own watchdog check.
		"sort": `SELECT D.sample_time, D.sample_value FROM dataview
		         WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		         ORDER BY D.sample_value`,
	}
	for name, sql := range queries {
		for _, streaming := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/streaming=%v", name, streaming), func(t *testing.T) {
				db := openWatchdog(t, dir, "exec.morsel=latency:1:40ms")
				// Warm the cache so execution time is morsel work, not
				// chunk ingestion: run once without a deadline.
				warm, cancelWarm := context.WithCancel(context.Background())
				_, _ = db.QueryContext(warm, sql)
				cancelWarm()

				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				t0 := time.Now()
				var err error
				if streaming {
					_, err = db.QueryStream(ctx, sql, new(rowDigest))
				} else {
					_, err = db.QueryContext(ctx, sql)
				}
				wall := time.Since(t0)
				requireDeadlineKill(t, err)
				// Deadline plus one morsel of grace: one 40ms claim delay
				// plus one morsel's work, with CI scheduling headroom.
				if wall > time.Second {
					t.Fatalf("deadlined query took %v, want deadline + one morsel", wall)
				}
				requireReleased(t, db)
			})
		}
	}
}

// TestWatchdogFaultFreePassthrough: with the exec.morsel point armed
// at rate zero, queries under generous deadlines are untouched — the
// watchdog check itself must not perturb results.
func TestWatchdogFaultFreePassthrough(t *testing.T) {
	dir := genRepo(t, 1)
	clean := open(t, dir, registrar.Lazy)
	armed := openWatchdog(t, dir, "exec.morsel=latency:0")
	for qi, sql := range tQueries() {
		if qi == 3 {
			continue // needs the windowdataview_md view, registered elsewhere
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		want, err := clean.QueryContext(ctx, sql)
		if err != nil {
			cancel()
			t.Fatalf("T%d clean: %v", qi, err)
		}
		got, err := armed.QueryContext(ctx, sql)
		if err != nil {
			cancel()
			t.Fatalf("T%d armed: %v", qi, err)
		}
		if digest(got.Rel).String() != digest(want.Rel).String() {
			t.Fatalf("T%d diverged under armed-zero exec.morsel", qi)
		}
		cancel()
	}
}
