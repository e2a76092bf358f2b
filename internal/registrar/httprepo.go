package registrar

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/fault"
	"sommelier/internal/storage"
)

// IndexFileName is the well-known name of the chunk listing an HTTP
// archive serves at its root.
const IndexFileName = "index.txt"

// Bounds on the discovery index: a hostile or broken archive cannot
// feed us an unbounded listing or an unbounded line.
const (
	// MaxIndexBytes caps the total size of index.txt.
	MaxIndexBytes = 8 << 20
	// MaxIndexLine caps one chunk path in the listing.
	MaxIndexLine = 4096
)

// RetryPolicy tunes the bounded exponential backoff of the HTTP fetch
// path. Each chunk request makes up to MaxAttempts attempts; attempt n
// is preceded by a jittered sleep of roughly BaseBackoff·2ⁿ, capped at
// MaxBackoff, raised to the server's Retry-After when one was sent.
type RetryPolicy struct {
	// MaxAttempts per request; <= 0 selects the default (3).
	MaxAttempts int
	// BaseBackoff before the first retry; <= 0 selects 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; <= 0 selects 2s.
	MaxBackoff time.Duration
}

const (
	defaultMaxAttempts = 3
	defaultBaseBackoff = 50 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultMaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = defaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = defaultMaxBackoff
	}
	return p
}

// backoff is the sleep before retry number attempt (0-based), half
// fixed and half jittered so synchronized clients spread out.
func (p RetryPolicy) backoff(attempt int, jitter float64) time.Duration {
	d := p.BaseBackoff << uint(attempt)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	return d/2 + time.Duration(jitter*float64(d/2))
}

// DefaultQuarantineTTL is how long a failed or corrupt chunk stays
// quarantined when QuarantineTTL is left zero.
const DefaultQuarantineTTL = 30 * time.Second

// HTTPRepository is a chunk repository behind an HTTP interface: the
// paper's §VIII "Other Sources" future work. The archive serves a plain
// chunk listing at <base>/index.txt (one relative path per line) and
// the chunk files themselves underneath. Metadata registration and
// chunk-access both stream over HTTP; the rest of the system is
// oblivious to the transport.
//
// The fetch path is hardened for archives we do not control: every
// request gets a per-attempt deadline (Timeout), transient failures
// retry with bounded jittered exponential backoff (Retry) that honors
// both Retry-After and context cancellation mid-sleep, a per-host
// circuit breaker stops hammering a down host (Breaker), and chunks
// that exhaust their retries or fail to decode enter a TTL quarantine
// (QuarantineTTL) so the next query fails them fast. All failures
// surface as Degradable errors — see ChunkError — which degraded-mode
// queries turn into partial results instead of query failures.
type HTTPRepository struct {
	// BaseURL of the archive, without trailing slash.
	BaseURL string
	// Client used for all requests; http.DefaultClient when nil.
	Client *http.Client
	// Timeout per request attempt; 0 means no extra deadline.
	Timeout time.Duration
	// Retry tunes backoff; the zero value selects the defaults.
	Retry RetryPolicy
	// Breaker tunes the per-host circuit breakers.
	Breaker BreakerConfig
	// QuarantineTTL is how long a failed chunk is blocked from
	// re-fetching; 0 selects DefaultQuarantineTTL, negative disables
	// quarantine entirely.
	QuarantineTTL time.Duration
	// Faults is the fault-injection schedule for this repository; nil
	// injects nothing.
	Faults *fault.Injector

	paths []string // relative chunk paths, position = chunk ID

	initOnce sync.Once
	breakers *breakerSet
	quar     *quarantine
	host     string

	jseq                                   atomic.Uint64 // jitter sequence
	fetches, retries, fetchErrors, rejects atomic.Int64
}

func (r *HTTPRepository) init() {
	r.initOnce.Do(func() {
		r.breakers = newBreakerSet(r.Breaker)
		ttl := r.QuarantineTTL
		if ttl == 0 {
			ttl = DefaultQuarantineTTL
		}
		if ttl > 0 {
			r.quar = newQuarantine(ttl)
		}
		if u, err := url.Parse(r.BaseURL); err == nil && u.Host != "" {
			r.host = u.Host
		} else {
			r.host = r.BaseURL
		}
	})
}

// SetFaults overrides the repository's fault-injection schedule (the
// engine wires Config.Faults through here).
func (r *HTTPRepository) SetFaults(in *fault.Injector) { r.Faults = in }

// faultInjector lets LoadChunkFromSource find the schedule.
func (r *HTTPRepository) faultInjector() *fault.Injector { return r.Faults }

// DiscoverHTTPRepository fetches the archive's chunk listing with the
// default policies. To tune timeouts, retries or the breaker first,
// construct an HTTPRepository and call Discover.
func DiscoverHTTPRepository(baseURL string, client *http.Client) (*HTTPRepository, error) {
	r := &HTTPRepository{BaseURL: strings.TrimRight(baseURL, "/"), Client: client}
	if err := r.Discover(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

// Discover fetches the archive's chunk listing into a pre-configured
// repository: the per-attempt Timeout, retry policy and breaker all
// apply, and the index is bounded (MaxIndexBytes total, MaxIndexLine
// per line) with a clear error on oversize.
func (r *HTTPRepository) Discover(ctx context.Context) error {
	r.init()
	r.BaseURL = strings.TrimRight(r.BaseURL, "/")
	resp, _, err := r.fetch(ctx, r.BaseURL+"/"+IndexFileName)
	if err != nil {
		return fmt.Errorf("registrar: fetching chunk index: %w", err)
	}
	defer resp.Body.Close()
	cr := &countingReader{r: io.LimitReader(resp.Body, MaxIndexBytes+1)}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 4096), MaxIndexLine)
	var paths []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		paths = append(paths, line)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("registrar: chunk index at %s: line exceeds %d bytes", r.BaseURL, MaxIndexLine)
		}
		return fmt.Errorf("registrar: reading chunk index: %w", err)
	}
	if cr.n > MaxIndexBytes {
		return fmt.Errorf("registrar: chunk index at %s exceeds %d bytes", r.BaseURL, int64(MaxIndexBytes))
	}
	if len(paths) == 0 {
		return fmt.Errorf("registrar: empty chunk index at %s", r.BaseURL)
	}
	sort.Strings(paths)
	r.paths = paths
	return nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// URIs implements Source; chunk URIs are the full URLs.
func (r *HTTPRepository) URIs() []string {
	out := make([]string, len(r.paths))
	for i, p := range r.paths {
		out[i] = r.BaseURL + "/" + p
	}
	return out
}

// Open implements Source: it GETs one chunk (see OpenContext).
func (r *HTTPRepository) Open(chunkID int64) (io.ReadCloser, error) {
	return r.OpenContext(context.Background(), chunkID)
}

// OpenContext streams one chunk's bytes through the hardened fetch
// path: per-attempt deadline, retry with backoff, circuit breaker.
func (r *HTTPRepository) OpenContext(ctx context.Context, chunkID int64) (io.ReadCloser, error) {
	if chunkID < 0 || chunkID >= int64(len(r.paths)) {
		return nil, fmt.Errorf("registrar: chunk %d out of range", chunkID)
	}
	r.init()
	u := r.BaseURL + "/" + escapePath(r.paths[chunkID])
	resp, attempts, err := r.fetch(ctx, u)
	if err != nil {
		return nil, &fetchFailure{attempts: attempts, err: err}
	}
	return resp.Body, nil
}

// fetchFailure carries the attempt count of an exhausted fetch up to
// LoadChunkInto, which folds it into the ChunkError it reports.
type fetchFailure struct {
	attempts int
	err      error
}

func (f *fetchFailure) Error() string { return f.err.Error() }
func (f *fetchFailure) Unwrap() error { return f.err }

// statusError is a non-2xx archive answer.
type statusError struct {
	url    string
	code   int
	status string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("registrar: chunk-access %s: %s", e.url, e.status)
}

// retryableStatus reports whether a status is worth another attempt: a
// permanent answer (404, 403, ...) proves the host is up and the
// resource is bad, so retrying only adds load.
func retryableStatus(code int) bool {
	return code == http.StatusRequestTimeout || code == http.StatusTooManyRequests || code >= 500
}

// fetch GETs u with retries, backoff, Retry-After, per-attempt
// deadlines and the circuit breaker. It returns the number of attempts
// actually made; the response body carries the per-attempt deadline
// with it (the deadline is released when the body is closed).
func (r *HTTPRepository) fetch(ctx context.Context, u string) (*http.Response, int, error) {
	pol := r.Retry.withDefaults()
	br := r.breakers.get(r.host)
	attempts := 0
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempts, err
		}
		ok, probe, wait := br.allow(ctx)
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, attempts, err
			}
			r.rejects.Add(1)
			return nil, attempts, &CircuitOpenError{Host: r.host, RetryIn: wait}
		}
		attempts++
		r.fetches.Add(1)
		resp, retryAfter, err := r.attempt(ctx, u)
		if err == nil {
			br.success(probe)
			return resp, attempts, nil
		}
		lastErr = err
		r.fetchErrors.Add(1)
		if ctx.Err() != nil {
			// Caller cancellation: not the host's fault, and not worth
			// another attempt. No verdict for the breaker.
			br.abandon(probe)
			return nil, attempts, ctx.Err()
		}
		var se *statusError
		if errors.As(err, &se) && !retryableStatus(se.code) {
			// A permanent status is a live host answering: reset the
			// breaker's failure streak, fail the request for good.
			br.success(probe)
			return nil, attempts, err
		}
		br.failure(probe, time.Now())
		if attempt == pol.MaxAttempts-1 {
			break
		}
		delay := pol.backoff(attempt, r.jitter())
		if retryAfter > delay {
			delay = retryAfter
		}
		r.retries.Add(1)
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, attempts, err
		}
	}
	return nil, attempts, lastErr
}

// attempt performs one GET with the per-attempt deadline and the
// registrar.http fault point. On a retryable status the server's
// Retry-After (when parseable) is returned alongside the error.
func (r *HTTPRepository) attempt(ctx context.Context, u string) (*http.Response, time.Duration, error) {
	act := r.Faults.Check(fault.PointHTTP)
	if err := act.Wait(ctx); err != nil {
		return nil, 0, err
	}
	if act.Err != nil {
		return nil, 0, act.Err
	}
	actx, cancel := ctx, context.CancelFunc(func() {})
	if r.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, r.Timeout)
	}
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, 0, err
	}
	resp, err := r.client().Do(req)
	if err != nil {
		cancel()
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		resp.Body.Close()
		cancel()
		return nil, ra, &statusError{url: u, code: resp.StatusCode, status: resp.Status}
	}
	// The attempt deadline stays armed while the body streams and is
	// released when the caller closes it.
	var body io.ReadCloser = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	if act.Corrupt {
		body = readCloser{Reader: fault.CorruptReader(body, act.CorruptSeed), Closer: body}
	}
	resp.Body = body
	return resp, 0, nil
}

// cancelOnClose releases an attempt's deadline when its body closes.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

type readCloser struct {
	io.Reader
	io.Closer
}

// parseRetryAfter understands both forms of the header: delta-seconds
// and an HTTP date. Unparseable values yield 0 (use our own backoff).
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// sleepCtx waits out a backoff, returning early on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter draws the next deterministic jitter fraction in [0,1). The
// sequence is fixed per repository so retry schedules are replayable.
func (r *HTTPRepository) jitter() float64 {
	x := r.jseq.Add(1) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return float64(x>>11) / (1 << 53)
}

func (r *HTTPRepository) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func escapePath(p string) string {
	parts := strings.Split(p, "/")
	for i, s := range parts {
		parts[i] = url.PathEscape(s)
	}
	return strings.Join(parts, "/")
}

// AllChunkIDs implements chunkstore.Loader.
func (r *HTTPRepository) AllChunkIDs(tableName string) []int64 { return allChunkIDs(r) }

// LoadChunk is chunk-access of a whole chunk over HTTP into fresh
// memory (see LoadChunkInto).
func (r *HTTPRepository) LoadChunk(tableName string, chunkID int64) (*storage.Relation, error) {
	rel, _, err := r.LoadChunkInto(context.Background(), tableName, chunkID, nil, nil)
	return rel, err
}

// LoadChunkInto implements chunkstore.Loader: the chunk-access operator
// over the hardened fetch path, landing the segments segs selects in
// mem (see LoadChunkFromSource). A chunk whose fetch exhausts its
// retries — or whose payload fails to decode — is quarantined for
// QuarantineTTL; while quarantined, requests for it fail immediately
// without touching the archive. All failures except caller
// cancellation (ctx ending) are reported as a *ChunkError, which is
// Degradable.
func (r *HTTPRepository) LoadChunkInto(ctx context.Context, tableName string, chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	r.init()
	if reason, ok := r.quar.check(chunkID, time.Now()); ok {
		return nil, nil, &ChunkError{Table: tableName, Chunk: chunkID, Quarantined: true, Err: errors.New(reason)}
	}
	rel, cov, err := LoadChunkFromSource(ctx, r, tableName, chunkID, segs, mem)
	if err == nil {
		return rel, cov, nil
	}
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return nil, nil, err
	}
	ce := &ChunkError{Table: tableName, Chunk: chunkID, Err: err}
	var ff *fetchFailure
	if errors.As(err, &ff) {
		ce.Attempts = ff.attempts
		ce.Err = ff.err
	}
	var open *CircuitOpenError
	if !errors.As(err, &open) {
		// The chunk itself is proven bad (exhausted retries, permanent
		// status, undecodable payload): quarantine it. A breaker
		// rejection proves nothing about this chunk, so it is not
		// quarantined.
		r.quar.add(chunkID, ce.Err.Error(), time.Now())
	}
	return nil, nil, ce
}

// Health is the reliability snapshot surfaced on sommelierd's /stats.
type Health struct {
	Hosts       []HostHealth `json:"hosts,omitempty"`
	Quarantined int          `json:"quarantined_chunks"`
	// Fetches counts request attempts; Retries the attempts beyond a
	// request's first; FetchErrors the failed attempts; Rejects the
	// requests refused by an open circuit breaker.
	Fetches     int64 `json:"fetches"`
	Retries     int64 `json:"retries"`
	FetchErrors int64 `json:"fetch_errors"`
	Rejects     int64 `json:"breaker_rejects"`
}

// Health reports the repository's breaker, quarantine and retry state.
func (r *HTTPRepository) Health() Health {
	r.init()
	return Health{
		Hosts:       r.breakers.snapshot(),
		Quarantined: r.quar.size(time.Now()),
		Fetches:     r.fetches.Load(),
		Retries:     r.retries.Load(),
		FetchErrors: r.fetchErrors.Load(),
		Rejects:     r.rejects.Load(),
	}
}

// FetchCount reports how many archive request attempts were made, the
// same counter Health exposes; the warm-restart tests assert it stays
// zero when the disk tier and metadata snapshot serve everything.
func (r *HTTPRepository) FetchCount() int64 { return r.fetches.Load() }

// WriteIndexFile writes the index.txt listing for a local repository
// directory so it can be served by any static HTTP server (or
// httptest.Server in tests).
func WriteIndexFile(dir string) error {
	repo, err := DiscoverRepository(dir)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for _, uri := range repo.Uris {
		rel, err := filepath.Rel(dir, uri)
		if err != nil {
			return err
		}
		sb.WriteString(filepath.ToSlash(rel))
		sb.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, IndexFileName), []byte(sb.String()), 0o644)
}
