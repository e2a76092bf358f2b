package registrar

import (
	"fmt"
	"time"
)

// ChunkError reports that one chunk could not be made available: the
// fetch exhausted its retries, the payload failed to decode, or the
// chunk sits in quarantine from an earlier failure. It is Degradable —
// a degraded-mode query skips the chunk and carries a warning instead
// of failing — while strict queries surface it as the query error.
type ChunkError struct {
	Table string
	Chunk int64
	// Attempts is how many fetch attempts were made (0 when the chunk
	// never reached the transport, e.g. quarantined or breaker-open).
	Attempts int
	// Quarantined marks that the error was answered from quarantine
	// without touching the archive.
	Quarantined bool
	Err         error
}

func (e *ChunkError) Error() string {
	from := ""
	if e.Quarantined {
		from = " (quarantined)"
	}
	attempts := ""
	if e.Attempts > 1 {
		attempts = fmt.Sprintf(" after %d attempts", e.Attempts)
	}
	return fmt.Sprintf("registrar: chunk %d of %s unavailable%s%s: %v",
		e.Chunk, e.Table, from, attempts, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// Degradable marks chunk unavailability as a partial-result condition,
// not a query-correctness failure.
func (e *ChunkError) Degradable() bool { return true }

// CircuitOpenError reports that the archive's circuit breaker refused a
// fetch without a network attempt: the host failed enough consecutive
// requests that hammering it further would only add latency. It is
// Degradable for the same reason ChunkError is.
type CircuitOpenError struct {
	Host    string
	RetryIn time.Duration
}

func (e *CircuitOpenError) Error() string {
	return fmt.Sprintf("registrar: circuit open for host %s (retry in %v)", e.Host, e.RetryIn)
}

// Degradable marks breaker rejections as availability failures.
func (e *CircuitOpenError) Degradable() bool { return true }
