package engine

// Stress tests for streaming execution at the engine level: a client
// that stops or drops mid-stream must never leave a chunk handle held,
// even under heavy concurrency. TestOracle checks what streams deliver.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"sommelier/internal/physical"
	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// countingStopSink consumes rows up to a limit and then stops the
// stream gracefully (a client that has all it wants).
type countingStopSink struct {
	limit int
	rows  int
}

func (s *countingStopSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	if s.rows >= s.limit {
		return physical.ErrStopStream
	}
	return nil
}

// dropSink consumes rows up to a limit and then fails the stream (a
// client whose connection died mid-response).
type dropSink struct {
	limit int
	rows  int
	err   error
}

func (s *dropSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	if s.rows >= s.limit {
		return s.err
	}
	return nil
}

// cancelSink cancels the query context mid-stream but keeps accepting
// batches (a client whose request context is torn down while the
// response is in flight).
type cancelSink struct {
	limit  int
	rows   int
	cancel context.CancelFunc
}

func (s *cancelSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	if s.rows >= s.limit {
		s.cancel()
	}
	return nil
}

// TestStreamingDisconnectStress hammers one DB with concurrent
// streaming queries whose clients stop politely, drop abruptly, or
// cancel their context at random points mid-stream. Run with -race;
// every chunk handle must be released regardless of how each stream
// ended.
func TestStreamingDisconnectStress(t *testing.T) {
	dir := genRepo(t, 1)
	db, err := Open(dir, Config{Approach: registrar.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT D.sample_time, D.sample_value FROM dataview
	             WHERE D.sample_time < '2010-01-02T00:00:00.000'`
	errConnReset := errors.New("connection reset by peer")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 6; i++ {
				limit := 1 + rng.Intn(4000)
				switch rng.Intn(3) {
				case 0:
					sink := &countingStopSink{limit: limit}
					if _, err := db.QueryStream(context.Background(), q, sink); err != nil {
						t.Errorf("polite stop: %v", err)
					}
				case 1:
					sink := &dropSink{limit: limit, err: errConnReset}
					_, err := db.QueryStream(context.Background(), q, sink)
					// A tiny result can finish before the drop triggers.
					if err != nil && !errors.Is(err, errConnReset) {
						t.Errorf("drop: %v", err)
					}
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					sink := &cancelSink{limit: limit, cancel: cancel}
					_, err := db.QueryStream(ctx, q, sink)
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("cancel: %v", err)
					}
					cancel()
				}
			}
		}(int64(w) + 71)
	}
	wg.Wait()
	requireReleased(t, db)
}

// TestStreamingQuota pins the engine-level memory-ceiling contract: a
// materializing query over a ceiling-limited DB fails with a typed
// *storage.QuotaError, while a streaming query under the same ceiling
// succeeds — stage one's small metadata result still has to fit (it
// always materializes), but the streamed stage-two rows never count.
func TestStreamingQuota(t *testing.T) {
	dir := genRepo(t, 1)
	const ceiling = 16 << 10 // far below the result size, far above stage one's
	const q = `SELECT D.sample_time, D.sample_value FROM dataview
	             WHERE D.sample_time < '2010-01-02T00:00:00.000'`
	db, err := Open(dir, Config{Approach: registrar.Lazy, MaxQueryBytes: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(q)
	var qe *storage.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("materialized query under %d-byte ceiling: err = %v, want *storage.QuotaError", ceiling, err)
	}
	requireReleased(t, db)

	// A stream buffers nothing chargeable in stage two.
	sink := &countingStopSink{limit: 1 << 30}
	if _, err := db.QueryStream(context.Background(), q, sink); err != nil {
		t.Fatalf("streaming under %d-byte ceiling: %v", ceiling, err)
	}
	if sink.rows*16 <= ceiling {
		t.Fatalf("stream delivered only %d rows — result fits the ceiling, test proves nothing", sink.rows)
	}
	requireReleased(t, db)
}
