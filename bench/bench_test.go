package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, err := percentile(ramp(199), 0.95, 10); err == nil {
		t.Error("p95 of 199 samples leaves 9 beyond it and must be refused")
	}
	if got, err := percentile(ramp(200), 0.95, 10); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", got, err)
	}
	if _, err := percentile(ramp(999), 0.99, 10); err == nil {
		t.Error("p99 of 999 samples must be refused")
	}
	if got, err := percentile(ramp(1000), 0.99, 10); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestSummarizeSampleFloorAndTail(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	if _, err := summarize(vals, 501); err == nil {
		t.Error("500 samples under a floor of 501 must fail the window")
	}
	if _, err := summarize(vals[:150], fullFloor); err == nil {
		t.Error("150 samples are under the floor")
	}
	s, err := summarize(vals, fullFloor)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 500 || s.P50 != 250 || s.P95 != 475 || !math.IsNaN(s.P99) {
		t.Errorf("summary %+v; want N=500 P50=250 P95=475 P99=NaN (refused)", s)
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median of nothing is 0, of 3,1,2 is 2")
	}
}

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", StartNS: 90, EndNS: 120}, // clipped at the parent's end
	}}
	self := tr.selfTimes()
	if got := self["parent"][0]; got != 50 {
		t.Errorf("parent self time %d ns; want 100 - (10..50) - (90..100) = 50", got)
	}
	if got := self["b"][0]; got != 30 {
		t.Errorf("leaf self time %d ns; want its whole 30", got)
	}
}

func TestDigestIsCanonicalAndOrderInsensitive(t *testing.T) {
	var a, b digest
	a.addRow([]any{"ISK", int64(96), math.NaN()})
	a.addRow([]any{"AQU", 1.5, true})
	b.addRow([]any{"AQU", 1.5, true})
	b.addRow([]any{"ISK", float64(96), nil}) // as JSON carries it
	if a != b {
		t.Errorf("digests differ: %+v vs %+v", a, b)
	}
	var c digest
	c.addRow([]any{"AQU", 1.5, true})
	c.addRow([]any{"ISK", float64(97), nil})
	if a == c {
		t.Error("a changed value must change the digest")
	}
}

func TestCompareFlagsOnlyWorseningBeyondBound(t *testing.T) {
	write := func(name string, qps, p50 float64) string {
		doc := resultDoc{Workloads: map[string]*workloadResult{"hot_point": {EndToEnd: &passResult{
			Correct: true,
			Metrics: map[string]float64{"qps": qps, "p50_ms": p50, "p95_ms": 1, "ttfb_p50_ms": 1, "rss_peak_mb": 1, "setup_s": 1},
		}}}}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 1.0)
	var out bytes.Buffer
	if code, err := compareFiles(&out, base, write("better.json", 2000, 0.5)); code != 0 || err != nil {
		t.Errorf("an improvement must pass: code %d, %v\n%s", code, err, out.String())
	}
	if code, _ := compareFiles(&out, base, write("slow.json", 1000, 1.5)); code != 1 {
		t.Errorf("p50 50%% worse must exceed its bound: code %d", code)
	}
	if code, _ := compareFiles(&out, base, write("fewer.json", 500, 1.0)); code != 1 {
		t.Errorf("qps halved must exceed its bound: code %d", code)
	}
}

// smokeScale is a 2-day archive of 2 000-sample chunks; the cold cache
// holds about three of its eight chunks.
var smokeScale = scale{
	Days: 2, HotDays: 2, ScanDays: 2, SamplesPerFile: 2000,
	ColdCacheBytes: 3 * 2000 * bytesPerRow, SampleFloor: 40, SetupReps: 1,
	TraceQueries: 20, MicroChunks: 2,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end at toy scale, traced, and
// holds the output to BENCHMARK.json: same workloads, same metric names
// and units, every name well-formed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths = %v; want [bench]", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / harness %q (or their whys) differ", i, w.Name, workloads[i].name)
		}
	}
	want := map[string]string{} // name -> unit, from BENCHMARK.json
	for _, m := range manifest.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range manifest.PerLayer {
		want[m.Name] = m.Unit
	}
	have := map[string]string{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		have[d.name] = d.unit
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.name)
		}
		if i < len(endToEnd) && (d.bound <= 0 || d.bound > 0.25 || manifest.EndToEnd[i].Bound != d.bound) {
			t.Errorf("%s: bound %v in the harness, %v in BENCHMARK.json; must match and lie in (0, 0.25]", d.name, d.bound, manifest.EndToEnd[i].Bound)
		}
	}
	for name, unit := range want {
		if have[name] != unit {
			t.Errorf("BENCHMARK.json metric %s (%s) is not what the harness reports (%q)", name, unit, have[name])
		}
	}
	for name := range have {
		if _, ok := want[name]; !ok {
			t.Errorf("harness metric %s is missing from BENCHMARK.json", name)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	h, err := newHarness(ctx, "..", t.TempDir(), 1, 600*time.Millisecond, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	tr := newTracer()
	for i := range workloads {
		w := &workloads[i]
		p, err := h.pass(ctx, w, tr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !p.Correct || p.Failed != 0 || p.Attempted < smokeScale.SampleFloor {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.name, p.Correct, p.Failed, p.Attempted, p.Errors)
		}
		for name := range want {
			v, ok := p.Metrics[name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s missing or not finite (%v)", w.name, name, v)
			}
		}
		for name := range p.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: output metric %s is not in BENCHMARK.json", w.name, name)
			}
		}
		for _, d := range endToEnd {
			if p.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; must never be 0", w.name, d.name, p.Metrics[d.name])
			}
		}
		// The driver's result line: exactly these keys, every metric with
		// value and unit.
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader([]byte(resultLine(p, perLayer))))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: result line lacks a key or a metric: %+v", w.name, line)
		}
		for name, m := range line.Metrics {
			if m.Value == nil || m.Unit != want[name] {
				t.Errorf("%s: result line metric %s = %+v; want a value and unit %q", w.name, name, m, want[name])
			}
		}
		if w.diskTier && (p.Metrics["exec.chunks_promoted_per_query"] <= 0 || p.Metrics["exec.archive_fetches"] != 0) {
			t.Errorf("%s: promoted/query %v, archive fetches %v; want > 0 and 0", w.name,
				p.Metrics["exec.chunks_promoted_per_query"], p.Metrics["exec.archive_fetches"])
		}
	}
	if len(tr.spans) == 0 {
		t.Error("traced passes recorded no spans")
	}
}
