package registrar

import (
	"context"
	"sync"
	"testing"
	"time"
)

// openBreaker returns a breaker tripped a cooldown ago on clk, so that
// its next caller becomes the half-open probe.
func openBreaker(clk *fakeClock) *breaker {
	b := &breaker{}
	for i := 0; i < breakerThreshold; i++ {
		b.failure(nil, clk.Now())
	}
	clk.Advance(BreakerCooldown)
	return b
}

// TestHalfOpenCallersAwaitTheProbe: callers arriving while a half-open
// probe is in flight get its verdict, not a rejection — all admitted
// after a success, all rejected with the fresh cooldown after a failure,
// and the next one takes the probe over when the prober gives up.
func TestHalfOpenCallersAwaitTheProbe(t *testing.T) {
	clk := newFakeClock()
	for _, tc := range []struct {
		name    string
		verdict func(b *breaker, probe chan struct{})
		admit   bool
	}{
		{"success", (*breaker).success, true},
		{"failure", func(b *breaker, probe chan struct{}) { b.failure(probe, clk.Now()) }, false},
	} {
		// The clock stands still from here, so a failed probe re-opens
		// the breaker for the whole test.
		b := openBreaker(clk)
		ok, probe, _ := b.allow(context.Background(), clk)
		if !ok || probe == nil {
			t.Fatalf("%s: probe not admitted after the cooldown", tc.name)
		}
		const waiters = 8
		admitted := make(chan bool, waiters)
		var started sync.WaitGroup
		for i := 0; i < waiters; i++ {
			started.Add(1)
			go func() {
				started.Done()
				ok, _, _ := b.allow(context.Background(), clk)
				admitted <- ok
			}()
		}
		started.Wait()
		// Requests admitted before the breaker opened report back now:
		// none of them holds the probe, so none may end it.
		b.abandon(nil)
		b.success(nil)
		b.failure(nil, clk.Now())
		select {
		case ok := <-admitted:
			t.Fatalf("%s: a caller got %v before the probe's verdict", tc.name, ok)
		case <-time.After(20 * time.Millisecond):
		}
		if b.state != BreakerHalfOpen {
			t.Fatalf("%s: a stale report moved the breaker to %s mid-probe", tc.name, b.state)
		}
		tc.verdict(b, probe)
		for i := 0; i < waiters; i++ {
			if ok := <-admitted; ok != tc.admit {
				t.Fatalf("%s: waiter admitted = %v, want %v", tc.name, ok, tc.admit)
			}
		}
	}

	// A waiter is bounded by its own context …
	b := openBreaker(clk)
	_, probe, _ := b.allow(context.Background(), clk)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ok, _, _ := b.allow(ctx, clk); ok {
		t.Fatal("waiter with an ended context admitted while the probe is in flight")
	}
	// … and an abandoned probe hands the slot to the next caller.
	b.abandon(probe)
	if ok, next, _ := b.allow(context.Background(), clk); !ok || next == nil || b.state != BreakerHalfOpen {
		t.Fatalf("after abandon: admitted = %v (probe %v) in state %s, want the new half-open probe", ok, next != nil, b.state)
	}
}
