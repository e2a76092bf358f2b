package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sommelier/internal/fault"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// degradableChunkErr is the test stand-in for a registrar failure that
// degraded mode may proceed past: exhausted retries, quarantine, an
// open circuit breaker.
type degradableChunkErr struct{ id int64 }

func (e *degradableChunkErr) Error() string    { return fmt.Sprintf("test: chunk %d unreachable", e.id) }
func (e *degradableChunkErr) Degradable() bool { return true }

// flakyLoader wraps fakeLoader, failing chosen chunks with a
// Degradable error (fakeLoader.fail stays the non-degradable failure).
type flakyLoader struct {
	*fakeLoader
	unavailable map[int64]bool
}

func (l *flakyLoader) LoadChunkInto(ctx context.Context, tableName string, chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	if l.unavailable[chunkID] {
		return nil, nil, &degradableChunkErr{id: chunkID}
	}
	return l.fakeLoader.LoadChunkInto(ctx, tableName, chunkID, segs, mem)
}

// countSink consumes every pushed batch, counting rows.
type countSink struct{ rows int }

func (s *countSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	return nil
}

// requireNoHandles fails t when a query over cat left a handle on one of
// its actual-data chunks unreleased.
func requireNoHandles(t *testing.T, cat *table.Catalog) {
	t.Helper()
	d, _ := cat.Table(seismic.TableD)
	if n := d.Chunks().Stats().Handles; n != 0 {
		t.Errorf("%d chunk handles still held", n)
	}
}

// sumFor is the expected sum_val over the given chunks: chunk c holds
// values c*100 .. c*100+9.
func sumFor(chunks ...int64) float64 {
	var s float64
	for _, c := range chunks {
		s += float64(1000*c + 45)
	}
	return s
}

// TestDegradedSkipsUnavailableChunk: with Env.Degraded set, a chunk
// whose load fails with a Degradable error is skipped with a warning
// and the query answers over the surviving chunks.
func TestDegradedSkipsUnavailableChunk(t *testing.T) {
	cat, base := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	loader := &flakyLoader{fakeLoader: base, unavailable: map[int64]bool{4: true}}
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	env := lazyEnv(cat, loader, 0)
	env.Degraded = true
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	// ISK owns the even chunks {0,2,4,6,8}; 4 is unavailable.
	if res.Stats.ChunksSelected != 5 || res.Stats.ChunksSkipped != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if len(res.Warnings) != 1 {
		t.Fatalf("warnings = %+v, want exactly one", res.Warnings)
	}
	w := res.Warnings[0]
	if w.Table != seismic.TableD || w.Chunk != 4 {
		t.Fatalf("warning = %+v, want table D chunk 4", w)
	}
	if !strings.Contains(w.Reason, "unreachable") {
		t.Fatalf("warning reason %q does not carry the cause", w.Reason)
	}
	if got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]; got != sumFor(0, 2, 6, 8) {
		t.Fatalf("sum = %v, want %v (chunks 0,2,6,8)", got, sumFor(0, 2, 6, 8))
	}
}

// TestStrictModeFailsOnUnavailableChunk: without degraded mode the
// same failure is fatal.
func TestStrictModeFailsOnUnavailableChunk(t *testing.T) {
	cat, base := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	loader := &flakyLoader{fakeLoader: base, unavailable: map[int64]bool{4: true}}
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err == nil {
		t.Fatal("strict query over an unavailable chunk succeeded")
	}
	if !strings.Contains(err.Error(), "chunk-access") {
		t.Fatalf("err = %v, want chunk-access wrapping", err)
	}
}

// TestDegradedPerRequestOverride: the context override wins over the
// env default, in both directions.
func TestDegradedPerRequestOverride(t *testing.T) {
	cat, base := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	loader := &flakyLoader{fakeLoader: base, unavailable: map[int64]bool{4: true}}
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}

	// Strict env, degraded request: proceeds.
	env := lazyEnv(cat, loader, 0)
	res, err := Execute(WithDegraded(context.Background(), true), env, p, Options{})
	if err != nil {
		t.Fatalf("degraded request on strict env failed: %v", err)
	}
	if res.Stats.ChunksSkipped != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}

	// Degraded env, strict request: fails.
	env2 := lazyEnv(cat, loader, 0)
	env2.Degraded = true
	res, err = Execute(WithDegraded(context.Background(), false), env2, p, Options{})
	if err == nil {
		t.Fatal("strict request on degraded env succeeded over an unavailable chunk")
	}
}

// TestDegradedNonDegradableStillFatal: degraded mode only forgives
// errors that declare themselves Degradable; anything else (a decode
// bug, a corrupt catalog) still fails the query.
func TestDegradedNonDegradableStillFatal(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	loader.fail[4] = true // plain error, not Degradable
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	env := lazyEnv(cat, loader, 0)
	env.Degraded = true
	_, err = Execute(context.Background(), env, p, Options{})
	if err == nil {
		t.Fatal("degraded mode forgave a non-degradable error")
	}
}

// TestDegradedFaultInjectedFlight: a fault injector armed on the
// exec.flight point fails every chunk ingestion; in degraded mode the
// query still completes, reporting every selected chunk skipped.
func TestDegradedFaultInjectedFlight(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	env := lazyEnvFaults(cat, loader, 0, fault.MustNew("exec.flight=error:1", 1))
	env.Degraded = true
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatalf("degraded query under total fault injection failed: %v", err)
	}
	if res.Stats.ChunksSkipped != 5 || len(res.Warnings) != 5 {
		t.Fatalf("stats = %+v warnings = %d, want all 5 ISK chunks skipped", res.Stats, len(res.Warnings))
	}
	if loader.loadCount() != 0 {
		t.Fatalf("flight-point faults fired after the load: %d loads", loader.loadCount())
	}
	// Strict mode under the same schedule fails.
	env2 := lazyEnvFaults(cat, loader, 0, fault.MustNew("exec.flight=error:1", 1))
	if _, err := Execute(context.Background(), env2, p, Options{}); err == nil {
		t.Fatal("strict query under total fault injection succeeded")
	}
}

// TestDegradedCacheFillFaultCarriesVolume: a cache.fill fault fires
// after the chunk is decoded, so the warning reports how many rows and
// bytes the query proceeded without.
func TestDegradedCacheFillFaultCarriesVolume(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	env := lazyEnvFaults(cat, loader, 0, fault.MustNew("cache.fill=error:1", 1))
	env.Degraded = true
	res, err := Execute(context.Background(), env, p, Options{})
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if len(res.Warnings) != 5 {
		t.Fatalf("warnings = %d, want 5", len(res.Warnings))
	}
	for _, w := range res.Warnings {
		if w.Rows != 10 || w.Bytes <= 0 {
			t.Fatalf("warning %+v should carry the decoded chunk's volume", w)
		}
	}
}

// TestDegradedStreaming: warnings flow through the streaming path too.
func TestDegradedStreaming(t *testing.T) {
	cat, base := setupCatalog(t, 10)
	defer requireNoHandles(t, cat)
	loader := &flakyLoader{fakeLoader: base, unavailable: map[int64]bool{2: true, 6: true}}
	p, err := compile(cat, t4Query("ISK"))
	if err != nil {
		t.Fatal(err)
	}
	env := lazyEnv(cat, loader, 0)
	env.Degraded = true
	sink := &countSink{}
	res, err := Execute(context.Background(), env, p, Options{Sink: sink})
	if err != nil {
		t.Fatalf("degraded stream failed: %v", err)
	}
	if res.Stats.ChunksSkipped != 2 || len(res.Warnings) != 2 {
		t.Fatalf("stats = %+v warnings = %d", res.Stats, len(res.Warnings))
	}
}
