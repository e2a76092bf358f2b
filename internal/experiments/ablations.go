package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/engine"
	"sommelier/internal/opt"
	"sommelier/internal/plan"
	"sommelier/internal/registrar"
	"sommelier/internal/sqlparse"
)

// ParallelLoadRow compares lazy ingestion with parallel vs serial
// chunk loading (the paper's §V remark on static parallelization).
type ParallelLoadRow struct {
	SF          int
	MaxParallel int
	QueryTime   time.Duration
	Chunks      int
}

// AblationParallelLoad runs a 100%-selectivity T4 query — every chunk
// must be ingested — with the loader bounded to 1 worker vs all cores.
func AblationParallelLoad(cfg Config) ([]ParallelLoadRow, error) {
	sf := cfg.ScaleFactors[len(cfg.ScaleFactors)-1]
	dir, _, err := cfg.Repo(sf, true)
	if err != nil {
		return nil, err
	}
	start, end := cfg.span(sf)
	sql := queryT4("FIAM", start, end)
	var rows []ParallelLoadRow
	for _, par := range []int{1, 0} {
		db, err := engine.Open(dir, engine.Config{Approach: registrar.Lazy, MaxParallel: par})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := db.Query(sql)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParallelLoadRow{
			SF: sf, MaxParallel: par, QueryTime: time.Since(t0), Chunks: res.Stats.ChunksLoaded,
		})
	}
	return rows, nil
}

// CachePolicyRow compares recycler replacement policies under a skewed
// re-access pattern with a cache holding only part of the working set.
type CachePolicyRow struct {
	Policy    string
	Hits      int64
	Misses    int64
	Evictions int64
	Total     time.Duration
}

// AblationCachePolicy replays a zipf-skewed sequence of two-day T4
// queries against a deliberately small recycler under LRU and the
// cost-aware policy (the paper's "smarter caching" future work).
func AblationCachePolicy(cfg Config) ([]CachePolicyRow, error) {
	sf := cfg.ScaleFactors[len(cfg.ScaleFactors)-1]
	dir, _, err := cfg.Repo(sf, true)
	if err != nil {
		return nil, err
	}
	start, _ := cfg.span(sf)
	days := cfg.BaseDays * sf
	var rows []CachePolicyRow
	for _, pol := range []cache.Policy{cache.LRU, cache.CostAware} {
		name := "lru"
		if pol == cache.CostAware {
			name = "cost-aware"
		}
		// Size the cache to roughly a third of the chunks.
		probe, err := engine.Open(dir, engine.Config{Approach: registrar.Lazy})
		if err != nil {
			return nil, err
		}
		_, err = probe.Query(queryT4("FIAM", start, start+int64(24*time.Hour)))
		if err != nil {
			return nil, err
		}
		perChunk := probe.Report().DataBytes
		db, err := engine.Open(dir, engine.Config{
			Approach:    registrar.Lazy,
			CacheBytes:  perChunk * int64(days) / 3,
			CachePolicy: pol,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(days-1))
		t0 := time.Now()
		for i := 0; i < 4*days; i++ {
			day := int(zipf.Uint64())
			lo := start + int64(day)*int64(24*time.Hour)
			_, err := db.Query(queryT4("FIAM", lo, lo+int64(24*time.Hour)))
			if err != nil {
				return nil, err
			}
		}
		total := time.Since(t0)
		st := db.CacheStats()
		rows = append(rows, CachePolicyRow{
			Policy: name, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Total: total,
		})
	}
	return rows, nil
}

// JoinRuleRow reports how many chunks a query touches with the R1–R4
// rule set versus the worst case the rules exist to avoid.
type JoinRuleRow struct {
	Query        string
	WithRules    int // chunks selected via Qf
	WithoutRules int // chunks a metadata-blind plan must load
}

// AblationJoinRules quantifies the rule set's effect: the Qf-driven
// chunk selection of a selective T4 query versus the all-chunks worst
// case (rule R2's motivating scenario: accessing actual data without
// exploiting metadata).
func AblationJoinRules(cfg Config) ([]JoinRuleRow, error) {
	sf := cfg.ScaleFactors[0]
	dir, man, err := cfg.Repo(sf, false)
	if err != nil {
		return nil, err
	}
	db, err := openDB(dir, registrar.Lazy)
	if err != nil {
		return nil, err
	}
	start, _ := cfg.span(sf)
	sql := queryT4("FIAM", start, start+2*int64(24*time.Hour))
	res, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	// Sanity-check that the compiled plan really carries a Qf branch.
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(db.Catalog(), q)
	if err != nil {
		return nil, err
	}
	p, err = opt.Optimize(&opt.Context{Catalog: db.Catalog()}, p, opt.Default())
	if err != nil {
		return nil, err
	}
	if p.Qf == nil {
		return nil, fmt.Errorf("ablation: T4 plan lost its Qf branch")
	}
	return []JoinRuleRow{{
		Query:        "T4, one station, 2 days",
		WithRules:    res.Stats.ChunksSelected,
		WithoutRules: len(man.Files),
	}}, nil
}
