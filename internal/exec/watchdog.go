package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sommelier/internal/fault"
)

// The runaway-query watchdog. Context deadlines have always been
// enforced at the HTTP handler; what was missing is enforcement
// *inside* execution — a query that blew its budget kept burning CPU
// and memory until its drains finished. The executor now threads a
// cooperative check before every batch pulled by a stage-2 drain
// (materialized and streaming) and by every pipeline breaker's internal
// drain (hash-join build, aggregation fold, sort input, top-k feed), so
// an expired query stops within one batch of the expiry and surfaces a
// typed *DeadlineError the server can count as a watchdog kill.

// DeadlineError reports that a query's deadline expired and the
// watchdog cancelled it at a batch boundary. It unwraps to
// context.DeadlineExceeded, so existing errors.Is dispatch (HTTP 504)
// keeps working.
type DeadlineError struct {
	// Elapsed is how long the query had been running, from the start
	// of its profile, when the expiry was noticed.
	Elapsed time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("exec: deadline exceeded, query cancelled at morsel boundary after %v", e.Elapsed.Round(time.Microsecond))
}

// Unwrap makes errors.Is(err, context.DeadlineExceeded) true.
func (e *DeadlineError) Unwrap() error { return context.DeadlineExceeded }

// deadlineErr normalizes a query-fatal error: any error caused by the
// context deadline — however deep it surfaced from — becomes a
// *DeadlineError stamped with the query's elapsed time. Other errors
// (including plain cancellation) pass through.
func (ex *executor) deadlineErr(err error) error {
	var de *DeadlineError
	if errors.As(err, &de) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &DeadlineError{Elapsed: time.Since(ex.prof.clock)}
	}
	return err
}

// morselHook builds the Morsel hook for the top-level stage-2 drains:
// the exec.morsel fault point (injected stalls and errors land here,
// once per top-level drain, before its first pull, never inside a
// batch) followed by the watchdog's deadline check. Breakers' internal
// drains get the bare context check instead, so fault counts stay one
// per top-level drain.
func (ex *executor) morselHook() func() error {
	inj := ex.env.Faults
	ctx := ex.ctx
	return func() error {
		if act := inj.Check(fault.PointMorsel); act.Err != nil || act.Delay > 0 {
			if err := act.Wait(ctx); err != nil {
				return err
			}
			if act.Err != nil {
				return act.Err
			}
		}
		return ctx.Err()
	}
}
