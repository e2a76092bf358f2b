package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sommelier/internal/chunkstore"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// The single flight lazy ingestion relies on: concurrent Acquires of
// one missing chunk share one load of its table's chunk store.

// gatedLoader runs load for every chunk load, numbering the calls.
type gatedLoader struct {
	calls atomic.Int32
	load  func(call int32) (*storage.Relation, error)
}

func (l *gatedLoader) LoadChunkInto(context.Context, string, int64, []int64, *storage.ChunkMem) (*storage.Relation, []int64, error) {
	rel, err := l.load(l.calls.Add(1))
	return rel, nil, err
}

func (l *gatedLoader) AllChunkIDs(string) []int64 { return nil }

// flightStore is an uncached store loading through l: every load is
// transient, so a flight's chunk is gone once its handles are.
func flightStore(l chunkstore.Loader) *chunkstore.Store {
	s := chunkstore.New(seismic.TableD)
	s.Configure(chunkstore.Config{Loader: l})
	return s
}

func oneRow(v float64) *storage.Relation {
	r := storage.NewRelation()
	r.Append(storage.NewBatch(storage.NewFloat64Column([]float64{v})))
	return r
}

// TestFlightSharesLeaderResult: waiters joining an open flight get the
// leader's chunk without loading it themselves.
func TestFlightSharesLeaderResult(t *testing.T) {
	release, entered := make(chan struct{}), make(chan struct{})
	want := oneRow(42)
	l := &gatedLoader{load: func(call int32) (*storage.Relation, error) {
		if call > 1 {
			return nil, errors.New("waiter must not load")
		}
		close(entered)
		<-release
		return want, nil
	}}
	s := flightStore(l)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h, err := s.Acquire(context.Background(), 7, nil)
		if err != nil || !h.Loaded || h.Rel() != want {
			t.Errorf("leader: %+v %v", h, err)
		}
		h.Release()
	}()
	<-entered

	const waiters = 4
	hs := make([]chunkstore.Handle, waiters)
	for i := range hs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if hs[i], err = s.Acquire(context.Background(), 7, nil); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
		}(i)
	}
	// Give the waiters a moment to join the open flight, then land it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := l.calls.Load(); n != 1 {
		t.Fatalf("loaded %d times, want 1", n)
	}
	for i, h := range hs {
		if h.Loaded {
			t.Errorf("waiter %d claims the load", i)
		}
		if h.Rel() != want {
			t.Errorf("waiter %d got another chunk", i)
		}
		h.Release()
	}
}

// TestFlightWaiterCancelled: a waiter whose context expires mid-flight
// returns its context error at once, and the flight is not poisoned —
// the leader and later callers still succeed.
func TestFlightWaiterCancelled(t *testing.T) {
	release, entered := make(chan struct{}), make(chan struct{})
	l := &gatedLoader{load: func(call int32) (*storage.Relation, error) {
		if call == 1 {
			close(entered)
			<-release
		}
		return oneRow(float64(call)), nil
	}}
	s := flightStore(l)

	leaderDone := make(chan error, 1)
	go func() {
		h, err := s.Acquire(context.Background(), 3, nil)
		h.Release()
		leaderDone <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		h, err := s.Acquire(ctx, 3, nil)
		h.Release()
		waiterDone <- err
	}()
	// Let the waiter park on the flight, then cancel only the waiter.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	// The leader is unaffected by the waiter's cancellation.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter cancellation: %v", err)
	}
	// And the key is clear: a fresh caller becomes a fresh leader.
	h, err := s.Acquire(context.Background(), 3, nil)
	if err != nil || !h.Loaded || l.calls.Load() != 2 {
		t.Fatalf("fresh flight after cancellation: %+v %v, %d loads", h, err, l.calls.Load())
	}
	h.Release()
}

// TestFlightErrorNotCached: a failed flight's error is not remembered —
// the next caller loads afresh and can succeed. This is what lets the
// registrar's quarantine/retry policy own failure memory instead of the
// store.
func TestFlightErrorNotCached(t *testing.T) {
	injected := errors.New("injected: chunk fetch failed")
	l := &gatedLoader{load: func(call int32) (*storage.Relation, error) {
		if call == 1 {
			return nil, injected
		}
		return oneRow(5), nil
	}}
	s := flightStore(l)

	if _, err := s.Acquire(context.Background(), 11, nil); !errors.Is(err, injected) {
		t.Fatalf("first call: %v", err)
	}
	h, err := s.Acquire(context.Background(), 11, nil)
	if err != nil || !h.Loaded {
		t.Fatalf("retry after failure: %+v %v", h, err)
	}
	h.Release()
	if n := l.calls.Load(); n != 2 {
		t.Fatalf("loaded %d times, want 2 (errors are not cached)", n)
	}
}

// TestFlightErrorSharedWithWaiters: waiters of a failing flight all see
// the leader's error.
func TestFlightErrorSharedWithWaiters(t *testing.T) {
	injected := errors.New("injected")
	release, entered := make(chan struct{}), make(chan struct{})
	l := &gatedLoader{load: func(call int32) (*storage.Relation, error) {
		if call > 1 {
			return nil, errors.New("waiter must not load")
		}
		close(entered)
		<-release
		return nil, injected
	}}
	s := flightStore(l)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Acquire(context.Background(), 13, nil); !errors.Is(err, injected) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-entered

	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Acquire(context.Background(), 13, nil)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, injected) {
			t.Errorf("waiter %d err = %v, want the leader's injected error", i, err)
		}
	}
}
