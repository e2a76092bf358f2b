package registrar

import (
	"context"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

// The classic three states: closed passes requests and counts
// consecutive failures; open rejects without a network attempt until
// the cooldown elapses; half-open admits a single probe whose outcome
// decides between re-closing and re-opening, and holds every other
// caller until that verdict.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the archive's circuit breaker. The half-open state admits
// exactly one in-flight probe, so a recovering host sees one request,
// not a thundering herd; callers arriving meanwhile wait for the
// probe's verdict and then proceed or are rejected by it — a healed
// archive must not fail the parallel chunk loads of the first query
// that finds it healed.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	// verdict is non-nil while a half-open probe is in flight, and
	// closed when it ends (success, failure or abandon).
	verdict chan struct{}
	opens   int64 // lifetime count of closed→open transitions
}

// allow reports whether a request may proceed; when it may not, either
// ctx ended while waiting on a half-open probe (check ctx.Err) or the
// breaker is open, and the remaining cooldown is returned for
// Retry-After-style surfacing. A caller allowed through must report
// back with success, failure or abandon, handing over the probe token
// it was given: non-nil for the half-open probe, nil for everyone else.
func (b *breaker) allow(ctx context.Context, clk Clock) (ok bool, probe chan struct{}, wait time.Duration) {
	for {
		b.mu.Lock()
		if b.state == BreakerClosed {
			b.mu.Unlock()
			return true, nil, 0
		}
		if b.state == BreakerOpen {
			if wait := BreakerCooldown - clk.Now().Sub(b.openedAt); wait > 0 {
				b.mu.Unlock()
				return false, nil, wait
			}
			b.state = BreakerHalfOpen
		}
		verdict := b.verdict
		if verdict == nil {
			// Half-open with the probe slot free: this caller probes.
			probe = make(chan struct{})
			b.verdict = probe
			b.mu.Unlock()
			return true, probe, 0
		}
		b.mu.Unlock()
		select {
		case <-verdict:
		case <-ctx.Done():
			return false, nil, 0
		}
	}
}

// settles reports whether a report carrying probe may move the breaker:
// while a half-open probe is in flight only its holder's does, so a
// request admitted before the breaker opened can neither end another
// caller's probe nor let a second one start beside it. b.mu held.
func (b *breaker) settles(probe chan struct{}) bool { return b.verdict == probe }

// endProbe wakes the callers waiting on the half-open probe. b.mu held.
func (b *breaker) endProbe() {
	if b.verdict != nil {
		close(b.verdict)
		b.verdict = nil
	}
}

// abandon reports a request that ended without a verdict on the host
// (its caller gave up): the probe's slot is handed to the next caller,
// everything else is left as it was.
func (b *breaker) abandon(probe chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe != nil && b.settles(probe) {
		b.endProbe()
	}
}

// success records a completed request, re-closing a half-open breaker.
func (b *breaker) success(probe chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.settles(probe) {
		return
	}
	b.state = BreakerClosed
	b.fails = 0
	b.endProbe()
}

// failure records a failed request: it trips a closed breaker past the
// threshold and re-opens a half-open one immediately.
func (b *breaker) failure(probe chan struct{}, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.settles(probe) {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.endProbe()
		b.opens++
	case BreakerClosed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
		}
	default: // already open (late failure from an admitted request)
		b.openedAt = now
	}
}

// HostHealth is the archive host's breaker snapshot, surfaced on /stats.
type HostHealth struct {
	Host                string `json:"host"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Opens               int64  `json:"opens"`
}

func (b *breaker) snapshot(host string) HostHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return HostHealth{
		Host:                host,
		State:               b.state.String(),
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
	}
}
