// Package fault implements deterministic, seed-driven fault injection
// for the chunk ingestion path. Production code declares named
// injection points ("registrar.http", "mseed.decode", ...); an
// Injector — built from a schedule spec like
//
//	registrar.http=error:0.05,mseed.decode=corrupt:0.01,cache.fill=latency:0.1:5ms
//
// — decides at each point whether a fault fires. Decisions are a pure
// function of (seed, point, per-point call sequence number), so a run
// with the same schedule, seed and call order injects the same faults:
// chaos tests are reproducible and failures replayable.
//
// The zero value of the check is free in the common case: a nil
// *Injector (faults disabled) returns the zero Action without a map
// lookup, and an Action with no fault is a handful of branches. A
// schedule is configured programmatically (New): engine.Config.Faults,
// sommelierd's -faults flag.
package fault

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Canonical injection point names. Points are plain strings — a new
// point needs no registration — but the wired-in ones are listed here
// so schedules and docs have one vocabulary.
const (
	// PointHTTP fires in the HTTPRepository transport, before each
	// request attempt (error = transport failure, latency = slow
	// archive, stall = hung connection).
	PointHTTP = "registrar.http"
	// PointDecode fires around miniSEED decoding of a fetched chunk
	// (corrupt = bit-flipped payload, error = unreadable chunk).
	PointDecode = "mseed.decode"
	// PointCacheFill fires after a chunk is loaded, before it becomes
	// resident (error = ingestion failure past the transport).
	PointCacheFill = "cache.fill"
	// PointFlight fires at the head of a chunk store flight leader's
	// load, covering the whole ingestion of one chunk.
	PointFlight = "exec.flight"
	// PointAdmit fires in the server's admission gate, before a request
	// is queued or dispatched (error = synthetic shed, latency/stall =
	// a slow gate holding the handler).
	PointAdmit = "server.admit"
	// PointMorsel fires once per top-level drain of a query, before its
	// first pull, materialized and streaming alike (latency/stall = a
	// query wedged mid-execution; the watchdog and shed paths must
	// release every chunk handle regardless).
	PointMorsel = "exec.morsel"
)

// Kind is the failure mode of one schedule rule.
type Kind uint8

// The four failure modes.
const (
	KindError   Kind = iota // the point returns an injected *Error
	KindLatency             // the point delays by the rule's duration
	KindCorrupt             // the point's payload has one byte flipped
	KindStall               // long latency (default 30s): a hung peer
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindCorrupt:
		return "corrupt"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Default latencies for duration-less latency/stall rules.
const (
	defaultLatency = 10 * time.Millisecond
	defaultStall   = 30 * time.Second
)

// rule is one parsed "point=kind:rate[:dur]" clause.
type rule struct {
	kind Kind
	rate float64
	dur  time.Duration
}

// point aggregates the rules and call counters of one injection point.
type point struct {
	rules  []rule
	checks atomic.Uint64 // sequence number source: one per Check
	fired  atomic.Uint64 // checks where at least one rule fired
}

// Injector decides, per named point, whether a fault fires. A nil
// Injector is valid and injects nothing; methods are safe for
// concurrent use.
type Injector struct {
	seed   int64
	spec   string
	points map[string]*point
}

// New parses a fault schedule. The grammar is comma-separated clauses
//
//	point=kind:rate[:duration]
//
// with kind ∈ {error, latency, corrupt, stall}, rate a probability in
// [0,1], and duration (latency/stall only) a Go duration like "5ms".
// An empty spec yields an inert injector.
func New(spec string, seed int64) (*Injector, error) {
	in := &Injector{seed: seed, spec: spec}
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return in, nil
	}
	in.points = make(map[string]*point)
	for _, clause := range strings.Split(trimmed, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("fault: clause %q: want point=kind:rate[:dur]", clause)
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fault: clause %q: want point=kind:rate[:dur]", clause)
		}
		var r rule
		switch parts[0] {
		case "error":
			r.kind = KindError
		case "latency":
			r.kind = KindLatency
		case "corrupt":
			r.kind = KindCorrupt
		case "stall":
			r.kind = KindStall
		default:
			return nil, fmt.Errorf("fault: clause %q: unknown kind %q (want error|latency|corrupt|stall)", clause, parts[0])
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("fault: clause %q: rate must be a probability in [0,1]", clause)
		}
		r.rate = rate
		if len(parts) == 3 {
			if r.kind != KindLatency && r.kind != KindStall {
				return nil, fmt.Errorf("fault: clause %q: duration only applies to latency/stall", clause)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: clause %q: bad duration %q", clause, parts[2])
			}
			r.dur = d
		} else if r.kind == KindLatency {
			r.dur = defaultLatency
		} else if r.kind == KindStall {
			r.dur = defaultStall
		}
		pname := strings.TrimSpace(name)
		p := in.points[pname]
		if p == nil {
			p = &point{}
			in.points[pname] = p
		}
		p.rules = append(p.rules, r)
	}
	return in, nil
}

// MustNew is New for compile-time-constant specs in tests.
func MustNew(spec string, seed int64) *Injector {
	in, err := New(spec, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// Enabled reports whether any rule is armed.
func (in *Injector) Enabled() bool { return in != nil && len(in.points) > 0 }

// Spec returns the schedule string the injector was built from.
func (in *Injector) Spec() string {
	if in == nil {
		return ""
	}
	return in.spec
}

// Seed returns the injector's decision seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Action is the outcome of one Check: what the instrumented point must
// do before (or instead of) its real work. The zero Action means "no
// fault".
type Action struct {
	// Err, when non-nil, is the fault the point should fail with (an
	// *Error, which is Degradable).
	Err error
	// Delay is added latency the point should Wait out first.
	Delay time.Duration
	// Corrupt asks the point to flip a byte of its payload, using
	// CorruptSeed to pick which (see CorruptReader).
	Corrupt     bool
	CorruptSeed uint64
}

// Check draws the fault decision for one call of a named point. Nil
// receiver and unarmed points return the zero Action.
func (in *Injector) Check(pointName string) Action {
	if in == nil || in.points == nil {
		return Action{}
	}
	p := in.points[pointName]
	if p == nil {
		return Action{}
	}
	seq := p.checks.Add(1)
	var act Action
	hit := false
	for i, r := range p.rules {
		h := mix(mix(uint64(in.seed), hashString(pointName)+uint64(i)*0x9e3779b97f4a7c15), seq)
		if r.rate < 1 && unit(h) >= r.rate {
			continue
		}
		hit = true
		switch r.kind {
		case KindError:
			if act.Err == nil {
				act.Err = &Error{Point: pointName, Seq: seq}
			}
		case KindLatency, KindStall:
			act.Delay += r.dur
		case KindCorrupt:
			act.Corrupt = true
			act.CorruptSeed = mix(h, 0xc0ffee)
		}
	}
	if hit {
		p.fired.Add(1)
	}
	return act
}

// Wait sleeps out the action's injected delay, honoring context
// cancellation. It is a no-op (no timer, no allocation) when no delay
// was injected.
func (a Action) Wait(ctx context.Context) error {
	if a.Delay <= 0 {
		return nil
	}
	t := time.NewTimer(a.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Checks reports how many times a point has been checked.
func (in *Injector) Checks(pointName string) uint64 {
	if in == nil || in.points == nil || in.points[pointName] == nil {
		return 0
	}
	return in.points[pointName].checks.Load()
}

// Fired reports how many checks of a point injected at least one fault.
func (in *Injector) Fired(pointName string) uint64 {
	if in == nil || in.points == nil || in.points[pointName] == nil {
		return 0
	}
	return in.points[pointName].fired.Load()
}

// Error is an injected fault. It is Degradable: a degraded-mode query
// treats the afflicted chunk like any other unavailable chunk and
// proceeds without it.
type Error struct {
	Point string // injection point that fired
	Seq   uint64 // the point's call sequence number
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s (call %d)", e.Point, e.Seq)
}

// Degradable marks injected errors as availability (not correctness)
// failures: see the exec package's degraded mode.
func (e *Error) Degradable() bool { return true }

// CorruptReader wraps r so that exactly one byte of the stream — chosen
// deterministically from seed, within the first corruptWindow bytes —
// is XOR-flipped. Corrupting the early bytes lands in the chunk header
// region, which every decoder must validate.
func CorruptReader(r io.Reader, seed uint64) io.Reader {
	return &corruptReader{r: r, target: int64(seed % corruptWindow)}
}

const corruptWindow = 256

type corruptReader struct {
	r      io.Reader
	target int64
	pos    int64
	done   bool
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && !c.done {
		if c.target >= c.pos && c.target < c.pos+int64(n) {
			p[c.target-c.pos] ^= 0x5a
			c.done = true
		}
		c.pos += int64(n)
	}
	return n, err
}

// mix is a splitmix64-style 64-bit finalizer combining two words.
func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
