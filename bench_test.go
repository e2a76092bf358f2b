package sommelier

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§VI). Each benchmark prints the corresponding
// paper-style text table once and reports a headline metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation at laptop scale. The absolute numbers
// differ from the paper (synthetic repository, in-memory engine); the
// shapes — who wins, by roughly what factor, where crossovers fall —
// are the reproduction target. cmd/benchrunner runs the same
// experiments at a configurable scale.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"sommelier/internal/experiments"
)

var (
	benchMu  sync.Mutex
	benchCfg *experiments.Config
	printed  = map[string]bool{}
)

// benchConfig lazily creates the shared experiment configuration; the
// generated repositories are cached across benchmarks in one temp dir.
func benchConfig(b *testing.B) experiments.Config {
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchCfg == nil {
		dir, err := os.MkdirTemp("", "sommelier-bench-")
		if err != nil {
			b.Fatal(err)
		}
		cfg := experiments.DefaultConfig(dir)
		// Laptop-scale volume: the full suite completes in minutes.
		cfg.BaseDays = 3
		cfg.SamplesPerFile = 6000
		cfg.WorkloadSizes = []int{50, 100}
		cfg.Selectivities = []int{0, 20, 40, 60, 80, 100}
		benchCfg = &cfg
	}
	return *benchCfg
}

// printOnce emits an experiment's rendered table a single time even
// when the benchmark iterates.
func printOnce(key, table string) {
	benchMu.Lock()
	defer benchMu.Unlock()
	if !printed[key] {
		printed[key] = true
		fmt.Println(table)
	}
}

// BenchmarkTableII regenerates Table II: dataset characteristics per
// scale factor.
func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("tableII", experiments.RenderTableII(rows))
		b.ReportMetric(float64(rows[len(rows)-1].DataRecords), "records/maxsf")
	}
}

// BenchmarkTableIII regenerates Table III: dataset sizes across
// representations.
func BenchmarkTableIII(b *testing.B) {
	cfg := benchConfig(b)
	cfg.ScaleFactors = cfg.ScaleFactors[:2] // CSV export at high sf is slow; the shape shows at low sf
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("tableIII", experiments.RenderTableIII(rows))
		r := rows[0]
		b.ReportMetric(float64(r.DBBytes)/float64(r.MseedBytes), "db/mseed-blowup")
		b.ReportMetric(float64(r.MseedBytes)/float64(r.LazyBytes), "mseed/lazy-ratio")
	}
}

// BenchmarkFig6Loading regenerates Figure 6: the loading cost breakdown
// of all five approaches.
func BenchmarkFig6Loading(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig6", experiments.RenderFig6(rows))
		var lazy, plain time.Duration
		for _, r := range rows {
			if r.SF == cfg.ScaleFactors[len(cfg.ScaleFactors)-1] {
				switch r.Approach {
				case "lazy":
					lazy = r.Total
				case "eager_plain":
					plain = r.Total
				}
			}
		}
		if lazy > 0 {
			b.ReportMetric(float64(plain)/float64(lazy), "eager/lazy-prep-ratio")
		}
	}
}

// BenchmarkFig7Queries regenerates Figure 7: T1–T5 single-query
// performance, cold and hot, per approach and scale factor.
func BenchmarkFig7Queries(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig7", experiments.RenderFig7(rows))
		var lazyHot time.Duration
		for _, r := range rows {
			if r.Approach == "lazy" && r.QueryType == 4 && r.SF == cfg.ScaleFactors[0] {
				lazyHot = r.Hot
			}
		}
		b.ReportMetric(lazyHot.Seconds()*1000, "lazyT4hot-ms")
	}
}

// BenchmarkFig8DataToInsight regenerates Figure 8: data-to-insight time
// versus query selectivity on the FIAM dataset.
func BenchmarkFig8DataToInsight(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig8", experiments.RenderFig8(rows))
		// Headline: even at 100% selectivity lazy's data-to-insight
		// beats eager_index's (paper §VI-D).
		var lazy100, idx100 time.Duration
		for _, r := range rows {
			if r.QueryType == 4 && r.SelectivityPct == 100 && r.SF == rows[len(rows)-1].SF {
				switch r.Approach {
				case "lazy":
					lazy100 = r.Total()
				case "eager_index":
					idx100 = r.Total()
				}
			}
		}
		if lazy100 > 0 {
			b.ReportMetric(float64(idx100)/float64(lazy100), "eageridx/lazy-100pct")
		}
	}
}

// BenchmarkFig9Workload regenerates Figure 9: cumulative workload time
// versus workload selectivity.
func BenchmarkFig9Workload(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig9", experiments.RenderFig9(rows))
		var lazy20, eager20 time.Duration
		for _, r := range rows {
			if r.QueryType == 4 && r.WorkloadSelPct == 20 && r.NQueries == cfg.WorkloadSizes[0] {
				switch r.Approach {
				case "lazy":
					lazy20 = r.Cumulative()
				case "eager_index":
					eager20 = r.Cumulative()
				}
			}
		}
		if lazy20 > 0 {
			b.ReportMetric(float64(eager20)/float64(lazy20), "eager/lazy-20pct")
		}
	}
}

// BenchmarkAblationParallelLoad measures serial vs parallel lazy chunk
// ingestion (§V's static parallelization remark).
func BenchmarkAblationParallelLoad(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationParallelLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-parallel", experiments.RenderAblations(rows, nil, nil))
		if rows[1].QueryTime > 0 {
			b.ReportMetric(float64(rows[0].QueryTime)/float64(rows[1].QueryTime), "serial/parallel")
		}
	}
}

// BenchmarkAblationCachePolicy compares the recycler's LRU policy with
// the cost-aware extension under skewed chunk reuse (§VIII).
func BenchmarkAblationCachePolicy(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCachePolicy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-cache", experiments.RenderAblations(nil, rows, nil))
		b.ReportMetric(float64(rows[0].Hits), "lru-hits")
		b.ReportMetric(float64(rows[1].Hits), "costaware-hits")
	}
}

// BenchmarkAblationJoinRules quantifies chunk pruning under the R1–R4
// rule set versus the metadata-blind worst case (§III).
func BenchmarkAblationJoinRules(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationJoinRules(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("ablation-rules", experiments.RenderAblations(nil, nil, rows))
		b.ReportMetric(float64(rows[0].WithoutRules)/float64(rows[0].WithRules), "chunk-reduction")
	}
}
