// Command bench is sommelierd's one benchmark. It generates a seeded
// seisgen archive, builds cmd/sommelierd from the working tree, and for
// each workload starts it as a child process on loopback, drives
// POST /query in a closed loop, checks every answer against an
// in-process reference, and prints every metric by name with its unit.
// See README.md for the workloads, the metrics and how they interact.
//
//	bash bench/run.sh                          every workload, untraced
//	bash bench/run.sh -trace 1                 ... then the traced pass of each
//	bash bench/run.sh --workload hot_scan --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// envelope records where and on what a result was measured.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg    float64 `json:"loadavg_before"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Dataset    struct {
		Files          int   `json:"files"`
		ArchiveBytes   int64 `json:"archive_bytes"`
		Rows           int64 `json:"rows"`
		DecodedBytes   int64 `json:"decoded_bytes"`
		HotChunks      int   `json:"hot_chunks"`
		ColdCacheBytes int64 `json:"cold_cache_bytes"`
	} `json:"dataset"`
	GenS   float64 `json:"gen_s"`
	BuildS float64 `json:"build_s"`
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

type resultDoc struct {
	Envelope  envelope                   `json:"envelope"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed of the archive and the query streams")
		seconds = fs.Int("seconds", 10, "length of each measured window")
		trace   = fs.Int("trace", 0, "with one workload: 0 prints its end-to-end metrics, 1 its per-layer metrics; with all: 1 adds the traced pass after the untraced windows")
		out     = fs.String("out", "bench/out/result.json", "result file, relative to the repository root; trace.json is written beside it")
		root    = fs.String("root", "", "repository root (default: nearest parent holding BENCHMARK.json)")
		compare = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return 2, errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{*w}
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			return 1, err
		}
	}

	// SIGINT and SIGTERM cancel ctx, which kills any child; the deferred
	// close then removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx, *root, filepath.Join(*root, ".bench_build"), *seed, time.Duration(*seconds)*time.Second, fullScale)
	if err != nil {
		return 1, err
	}
	defer h.close()

	doc := resultDoc{Envelope: h.envelope(), Workloads: map[string]*workloadResult{}}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var last *passResult
	correct := true
	runPass := func(w *workload, tr *tracer, defs []metricDef) (*passResult, error) {
		p, err := h.pass(ctx, w, tr)
		if err != nil {
			return nil, err
		}
		printPass(w.name, p, defs)
		correct = correct && p.Correct
		last = p
		return p, nil
	}
	for i := range selected {
		w := &selected[i]
		wr := &workloadResult{Why: w.why}
		doc.Workloads[w.name] = wr
		if *name == "all" || tr == nil {
			if wr.EndToEnd, err = runPass(w, nil, endToEnd); err != nil {
				return 1, err
			}
		}
		if tr != nil {
			if wr.PerLayer, err = runPass(w, tr, perLayer); err != nil {
				return 1, err
			}
		}
	}

	outPath := filepath.Join(*root, *out)
	if err := writeJSON(outPath, doc); err != nil {
		return 1, err
	}
	if tr != nil {
		if err := writeJSON(filepath.Join(filepath.Dir(outPath), "trace.json"), tr.spans); err != nil {
			return 1, err
		}
	}
	if *name != "all" {
		// The driver's contract: the last line of standard output is one
		// JSON object for the one pass that ran.
		defs := endToEnd
		if tr != nil {
			defs = perLayer
		}
		fmt.Println(resultLine(last, defs))
	}
	if !correct {
		return 1, errors.New("answers were wrong or requests failed; see the errors above")
	}
	return 0, nil
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in any parent directory; pass -root")
		}
		dir = parent
	}
}

func (h *harness) envelope() envelope {
	e := envelope{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: h.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), LoadAvg: h.loadavg, Seed: h.seed, WindowS: h.window.Seconds(),
		GenS: h.genS, BuildS: h.buildS,
	}
	// The driver's checkout is not a git repository; "unknown" stands.
	if out, err := exec.Command("git", "-C", h.root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	e.Dataset.Files = len(h.ds.man.Files)
	e.Dataset.ArchiveBytes = h.ds.man.TotalBytes()
	e.Dataset.Rows = h.ds.man.TotalSamples()
	e.Dataset.DecodedBytes = e.Dataset.Rows * bytesPerRow
	e.Dataset.HotChunks = h.sc.HotDays * len(h.ds.cfg.Stations)
	e.Dataset.ColdCacheBytes = h.sc.ColdCacheBytes
	return e
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printPass prints every metric of a pass by name, with its unit.
func printPass(workload string, p *passResult, defs []metricDef) {
	fmt.Printf("== %s: %d clients, %d attempted, %d failed, correct=%v\n", workload, p.Clients, p.Attempted, p.Failed, p.Correct)
	for _, e := range p.Errors {
		fmt.Printf("   error: %s\n", e)
	}
	for _, d := range defs {
		fmt.Printf("%s.%s %.6g %s\n", workload, d.name, p.Metrics[d.name], d.unit)
	}
}

// resultLine renders the contract's one-object result.
func resultLine(p *passResult, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{p.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats, strings and ints always marshal
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
