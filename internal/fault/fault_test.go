package fault

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"registrar.http",                   // no kind/rate
		"registrar.http=error",             // no rate
		"=error:0.5",                       // empty point
		"registrar.http=explode:0.5",       // unknown kind
		"registrar.http=error:1.5",         // rate out of range
		"registrar.http=error:-0.1",        // negative rate
		"registrar.http=error:x",           // unparsable rate
		"registrar.http=error:0.5:10ms",    // duration on error
		"registrar.http=latency:0.5:ten",   // bad duration
		"registrar.http=latency:0.5:-5ms",  // negative duration
		"registrar.http=latency:0.5:1s:2s", // too many fields
		"a=error:0.5,b",                    // bad second clause
		"off",                              // no clause
	}
	for _, spec := range bad {
		if _, err := New(spec, 0); err == nil {
			t.Errorf("accepted %q", spec)
		}
	}
}

func TestDisabledSpecs(t *testing.T) {
	for _, spec := range []string{"", "  "} {
		in, err := New(spec, 7)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if in.Enabled() {
			t.Errorf("spec %q enabled", spec)
		}
		if act := in.Check(PointHTTP); act != (Action{}) {
			t.Errorf("spec %q injected %+v", spec, act)
		}
	}
	var nilIn *Injector
	if nilIn.Enabled() || nilIn.Check(PointHTTP) != (Action{}) || nilIn.Fired(PointHTTP) != 0 {
		t.Error("nil injector not inert")
	}
}

func TestRateExtremes(t *testing.T) {
	always := MustNew("p=error:1", 1)
	never := MustNew("p=error:0", 1)
	for i := 0; i < 100; i++ {
		if always.Check("p").Err == nil {
			t.Fatal("rate 1 did not fire")
		}
		if never.Check("p").Err != nil {
			t.Fatal("rate 0 fired")
		}
	}
	if got := always.Fired("p"); got != 100 {
		t.Fatalf("fired = %d", got)
	}
	if got := never.Fired("p"); got != 0 {
		t.Fatalf("fired = %d", got)
	}
	if got := never.Checks("p"); got != 100 {
		t.Fatalf("checks = %d", got)
	}
}

// drawSeq records the fire/no-fire decisions of n sequential checks.
func drawSeq(in *Injector, point string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if in.Check(point).Err != nil {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func TestDeterminism(t *testing.T) {
	const spec = "p=error:0.5,q=error:0.5"
	a, b := MustNew(spec, 42), MustNew(spec, 42)
	if x, y := drawSeq(a, "p", 64), drawSeq(b, "p", 64); x != y {
		t.Fatalf("same seed diverged:\n%s\n%s", x, y)
	}
	if x, y := drawSeq(a, "q", 64), drawSeq(b, "q", 64); x != y {
		t.Fatalf("same seed diverged on q:\n%s\n%s", x, y)
	}
	// A different seed (or a different point) draws a different
	// sequence; with 64 fair coin flips a collision is a 2^-64 event.
	if x, y := drawSeq(MustNew(spec, 1), "p", 64), drawSeq(MustNew(spec, 2), "p", 64); x == y {
		t.Fatal("different seeds drew identical sequences")
	}
	if x, y := drawSeq(MustNew(spec, 42), "p", 64), drawSeq(MustNew(spec, 42), "q", 64); x == y {
		t.Fatal("different points drew identical sequences")
	}
}

func TestRateRough(t *testing.T) {
	in := MustNew("p=error:0.25", 9)
	fired := 0
	for i := 0; i < 4000; i++ {
		if in.Check("p").Err != nil {
			fired++
		}
	}
	if fired < 800 || fired > 1200 {
		t.Fatalf("rate 0.25 fired %d/4000", fired)
	}
}

func TestLatencyAndStallDurations(t *testing.T) {
	in := MustNew("a=latency:1,b=latency:1:3ms,c=stall:1,d=stall:1:7ms", 0)
	if got := in.Check("a").Delay; got != defaultLatency {
		t.Fatalf("default latency = %v", got)
	}
	if got := in.Check("b").Delay; got != 3*time.Millisecond {
		t.Fatalf("explicit latency = %v", got)
	}
	if got := in.Check("c").Delay; got != defaultStall {
		t.Fatalf("default stall = %v", got)
	}
	if got := in.Check("d").Delay; got != 7*time.Millisecond {
		t.Fatalf("explicit stall = %v", got)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	act := Action{Delay: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := act.Wait(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(t0) > 5*time.Second {
		t.Fatal("Wait ignored cancellation")
	}
	if err := (Action{}).Wait(ctx); err != nil {
		t.Fatalf("zero action waited: %v", err)
	}
}

func TestInjectedErrorIsDegradable(t *testing.T) {
	act := MustNew("p=error:1", 0).Check("p")
	var d interface{ Degradable() bool }
	if !errors.As(act.Err, &d) || !d.Degradable() {
		t.Fatalf("injected error not degradable: %v", act.Err)
	}
}

func TestCorruptReaderFlipsExactlyOneByte(t *testing.T) {
	orig := make([]byte, 1024)
	for i := range orig {
		orig[i] = byte(i)
	}
	for seed := uint64(0); seed < 16; seed++ {
		got, err := io.ReadAll(CorruptReader(bytes.NewReader(orig), seed))
		if err != nil {
			t.Fatal(err)
		}
		diffs := 0
		for i := range orig {
			if got[i] != orig[i] {
				diffs++
				if i >= corruptWindow {
					t.Fatalf("seed %d corrupted byte %d outside window", seed, i)
				}
			}
		}
		if diffs != 1 {
			t.Fatalf("seed %d flipped %d bytes", seed, diffs)
		}
	}
	// Tiny reads still corrupt deterministically.
	r := CorruptReader(bytes.NewReader(orig), 5)
	var out []byte
	buf := make([]byte, 3)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	if out[5] == orig[5] {
		t.Fatal("target byte not flipped across small reads")
	}
}

func TestCorruptRuleYieldsSeed(t *testing.T) {
	in := MustNew("p=corrupt:1", 3)
	a, b := in.Check("p"), in.Check("p")
	if !a.Corrupt || !b.Corrupt {
		t.Fatal("corrupt rule did not fire")
	}
	if a.CorruptSeed == b.CorruptSeed {
		t.Fatal("corrupt seeds identical across calls")
	}
}
