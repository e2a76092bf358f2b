package experiments

// This file holds the operator microbenchmarks and the machine-readable
// headline-metric dump: the perf trajectory of the execution core
// (selection vectors, zone maps, specialized hash paths) is tracked
// from benchrunner -json output checked in as BENCH_selection.json.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/physical"
	"sommelier/internal/storage"
)

// MicroResult is one operator microbenchmark measurement.
type MicroResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func microResult(r testing.BenchmarkResult) MicroResult {
	return MicroResult{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// microRel mirrors the physical package's benchmark relation: batches
// of (file_id, val) with a 64-key id domain.
func microRel(rows int) (*storage.Relation, []string, []storage.Kind) {
	rng := rand.New(rand.NewSource(3))
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := storage.BatchSize
		if rows-lo < n {
			n = rows - lo
		}
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(64))
			vals[i] = rng.NormFloat64() * 1000
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	return rel, []string{"D.file_id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
}

// FilterMicro measures a predicated scan: the fused selection-vector
// filter kernel plus the final materializing drain.
func FilterMicro() MicroResult {
	rel, names, kinds := microRel(1 << 16)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	return microResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := physical.NewRelScan(rel, names, kinds, pred)
			if err != nil {
				b.Fatal(err)
			}
			out, err := physical.Collect(s, physical.DrainOpts{Pooled: true})
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	}))
}

// JoinMicro measures a dimension-fact hash join probe: the specialized
// single-int64-key path, serially.
func JoinMicro() MicroResult { return JoinMicroAt(1) }

// JoinMicroAt measures the join probe at the given degree of
// parallelism: dop > 1 drains the join through the morsel-parallel
// pipeline (split probes over the shared build table).
func JoinMicroAt(dop int) MicroResult {
	dimRel := storage.NewRelation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	dimRel.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	factRel, fnames, fkinds := microRel(1 << 16)
	return microResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds, err := physical.NewRelScan(dimRel, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
			if err != nil {
				b.Fatal(err)
			}
			fs, err := physical.NewRelScan(factRel, fnames, fkinds, nil)
			if err != nil {
				b.Fatal(err)
			}
			j, err := physical.NewHashJoin(ds, fs, []int{0}, []int{0})
			if err != nil {
				b.Fatal(err)
			}
			j.SetParallel(dop)
			out, err := physical.Collect(j, physical.DrainOpts{DOP: dop, Pooled: true})
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	}))
}

// GroupByMicro measures a grouped aggregation: the specialized
// single-int64-key group-by path, serially.
func GroupByMicro() MicroResult { return GroupByMicroAt(1) }

// GroupByMicroAt measures the grouped aggregation at the given degree
// of parallelism: dop > 1 folds thread-local partial aggregates over
// the scan's morsel ranges and merges them at the end.
func GroupByMicroAt(dop int) MicroResult {
	rel, names, kinds := microRel(1 << 16)
	return microResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := physical.NewRelScan(rel, names, kinds, nil)
			if err != nil {
				b.Fatal(err)
			}
			agg, err := physical.NewHashAggregate(s, []int{0}, []physical.AggColumn{
				{Func: physical.AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
				{Func: physical.AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
			})
			if err != nil {
				b.Fatal(err)
			}
			agg.SetParallel(dop)
			out, err := physical.Collect(agg, physical.DrainOpts{Pooled: true})
			if err != nil {
				b.Fatal(err)
			}
			out.Release()
		}
	}))
}

// Headline is the machine-readable benchmark summary emitted by
// `benchrunner -json`: the Fig. 7/concurrency headline numbers plus the
// operator microbenchmarks.
type Headline struct {
	GeneratedUnix int64                  `json:"generated_unix"`
	ScaleFactor   int                    `json:"scale_factor"`
	LazyT4HotMs   float64                `json:"lazy_t4_hot_ms"`
	LazyQPS1      float64                `json:"lazy_qps_1client"`
	LazyQPS16     float64                `json:"lazy_qps_16clients"`
	LazyScaling16 float64                `json:"lazy_scaling_16_over_1"`
	Micro         map[string]MicroResult `json:"micro"`
	Parallel      *ParallelMetrics       `json:"parallel,omitempty"`
}

// ParallelMetrics is the parallel-execution section of the headline
// dump (written to BENCH_parallel.json by `make bench-json`, so the
// selection-era numbers in BENCH_selection.json stay as the historical
// baseline): cross-query scaling of the lazy service at 1/4/16 clients
// and intra-query speedup of the join/group-by microbenchmarks at
// DOP = GOMAXPROCS.
//
// Bench honesty: on a single-core host a "parallel speedup" is not a
// measurement, it is noise around 1.0 — so when GOMAXPROCS = 1 the
// speedup fields are null and Caveat says why, instead of printing a
// headline number that means nothing.
type ParallelMetrics struct {
	GOMAXPROCS     int      `json:"gomaxprocs"`
	LazyQPS1       float64  `json:"lazy_qps_1client"`
	LazyQPS4       float64  `json:"lazy_qps_4clients"`
	LazyQPS16      float64  `json:"lazy_qps_16clients"`
	Scaling4       float64  `json:"lazy_scaling_4_over_1"`
	Scaling16      float64  `json:"lazy_scaling_16_over_1"`
	JoinSpeedup    *float64 `json:"join_parallel_speedup"`
	GroupBySpeedup *float64 `json:"groupby_parallel_speedup"`
	Caveat         string   `json:"caveat,omitempty"`
}

// CollectHeadline runs the headline experiments (Fig. 7 single-query
// hot time, the concurrent-client sweep) at the configuration's first
// scale factor, plus the operator microbenchmarks.
func CollectHeadline(cfg Config) (*Headline, error) {
	cfg.ScaleFactors = cfg.ScaleFactors[:1]
	h := &Headline{
		GeneratedUnix: time.Now().Unix(),
		ScaleFactor:   cfg.ScaleFactors[0],
		Micro: map[string]MicroResult{
			"filter":  FilterMicro(),
			"join":    JoinMicro(),
			"groupby": GroupByMicro(),
		},
	}
	fig7, err := Fig7(cfg)
	if err != nil {
		return nil, fmt.Errorf("headline fig7: %w", err)
	}
	for _, r := range fig7 {
		if r.Approach == "lazy" && r.QueryType == 4 {
			h.LazyT4HotMs = float64(r.Hot) / float64(time.Millisecond)
		}
	}
	conc, err := ConcurrentLoad(cfg)
	if err != nil {
		return nil, fmt.Errorf("headline concurrency: %w", err)
	}
	par := &ParallelMetrics{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, r := range conc {
		if r.Approach == "lazy" {
			switch r.Clients {
			case 1:
				h.LazyQPS1 = r.QPS
				par.LazyQPS1 = r.QPS
			case 4:
				par.LazyQPS4 = r.QPS
			case 16:
				h.LazyQPS16 = r.QPS
				par.LazyQPS16 = r.QPS
			}
		}
	}
	if h.LazyQPS1 > 0 {
		h.LazyScaling16 = h.LazyQPS16 / h.LazyQPS1
		par.Scaling4 = par.LazyQPS4 / par.LazyQPS1
		par.Scaling16 = par.LazyQPS16 / par.LazyQPS1
	}
	if dop := par.GOMAXPROCS; dop > 1 {
		if pj := JoinMicroAt(dop); pj.NsPerOp > 0 {
			s := h.Micro["join"].NsPerOp / pj.NsPerOp
			par.JoinSpeedup = &s
		}
		if pg := GroupByMicroAt(dop); pg.NsPerOp > 0 {
			s := h.Micro["groupby"].NsPerOp / pg.NsPerOp
			par.GroupBySpeedup = &s
		}
	} else {
		// No parallel hardware, no parallel claim: leave the speedups
		// null rather than publishing a 1.0 that looks like a result.
		par.Caveat = "GOMAXPROCS=1: parallel speedups not measurable on this host; speedup fields are null"
	}
	h.Parallel = par
	return h, nil
}

// WriteHeadlineJSON collects the headline metrics and writes them as
// indented JSON to path.
func WriteHeadlineJSON(cfg Config, path string) error {
	h, err := CollectHeadline(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
