package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sommelier/internal/registrar"
)

// LoadingRow is one bar of Figure 6: the preparation cost breakdown of
// one approach at one scale factor.
type LoadingRow struct {
	SF            int
	Approach      registrar.Approach
	Metadata      time.Duration // registrar: GMd extraction + load
	MseedToCSV    time.Duration
	CSVToDB       time.Duration
	MseedToDB     time.Duration
	Indexing      time.Duration
	DMdDerivation time.Duration
	Total         time.Duration
}

// Fig6 measures the initial investment of every loading approach.
func Fig6(cfg Config) ([]LoadingRow, error) {
	var rows []LoadingRow
	for _, sf := range cfg.ScaleFactors {
		dir, _, err := cfg.Repo(sf, false)
		if err != nil {
			return nil, err
		}
		for _, app := range registrar.Approaches() {
			db, err := openDB(dir, app)
			if err != nil {
				return nil, fmt.Errorf("fig6 sf-%d %s: %w", sf, app, err)
			}
			rep := db.Report()
			rows = append(rows, LoadingRow{
				SF:            sf,
				Approach:      app,
				Metadata:      rep.MetadataTime,
				MseedToCSV:    rep.Breakdown.MseedToCSV,
				CSVToDB:       rep.Breakdown.CSVToDB,
				MseedToDB:     rep.Breakdown.MseedToDB,
				Indexing:      rep.Breakdown.Indexing,
				DMdDerivation: rep.Breakdown.DMdDerivation,
				Total:         rep.TotalTime(),
			})
		}
	}
	return rows, nil
}

// QueryPerfRow is one point of Figure 7: single-query performance of
// one query type on one approach at one scale factor, cold and hot.
type QueryPerfRow struct {
	SF        int
	Approach  registrar.Approach
	QueryType int
	Cold      time.Duration
	Hot       time.Duration
}

// fig7Approaches matches the paper's Figure 7 legend (eager_csv is
// indistinguishable from eager_plain after loading, so it is omitted,
// as in the paper).
func fig7Approaches() []registrar.Approach {
	return []registrar.Approach{
		registrar.EagerPlain, registrar.EagerIndex, registrar.EagerDMd, registrar.Lazy,
	}
}

// Fig7 measures representative single-query times. Each query selects
// two days of data from one station, as in §VI-C. Cold: first run on a
// freshly prepared database; hot: best of three repetitions.
func Fig7(cfg Config) ([]QueryPerfRow, error) {
	var rows []QueryPerfRow
	for _, sf := range cfg.ScaleFactors {
		dir, _, err := cfg.Repo(sf, false)
		if err != nil {
			return nil, err
		}
		start, end := cfg.span(sf)
		from := start
		to := from + 2*int64(24*time.Hour) // two days, as in §VI-C
		if to > end {
			to = end
		}
		for qt := 1; qt <= 5; qt++ {
			sql := queryOfType(qt, "FIAM", from, to)
			for _, app := range fig7Approaches() {
				db, err := openDB(dir, app)
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				_, err = db.Query(sql)
				if err != nil {
					return nil, fmt.Errorf("fig7 sf-%d %s T%d: %w", sf, app, qt, err)
				}
				cold := time.Since(t0)
				hot := time.Duration(1<<62 - 1)
				for i := 0; i < 3; i++ {
					t1 := time.Now()
					_, err := db.Query(sql)
					if err != nil {
						return nil, err
					}
					if d := time.Since(t1); d < hot {
						hot = d
					}
				}
				rows = append(rows, QueryPerfRow{SF: sf, Approach: app, QueryType: qt, Cold: cold, Hot: hot})
			}
		}
	}
	return rows, nil
}

// InsightRow is one point of Figure 8: preparation plus first-query
// time at one query selectivity on the single-station FIAM dataset.
type InsightRow struct {
	SF             int
	QueryType      int
	Approach       registrar.Approach
	SelectivityPct int
	Prep           time.Duration
	FirstQuery     time.Duration
}

// Total is the data-to-insight time.
func (r InsightRow) Total() time.Duration { return r.Prep + r.FirstQuery }

// fig8ScaleFactors picks the paper's sf-1 and sf-27 from the
// configured range.
func fig8ScaleFactors(cfg Config) []int {
	lo, hi := cfg.ScaleFactors[0], cfg.ScaleFactors[len(cfg.ScaleFactors)-1]
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// Fig8 sweeps query selectivity for T4 and T5 queries on the FIAM
// dataset: the query is the first after preparation, so the row's total
// is the data-to-insight time. Selectivity 0 rows report pure
// preparation cost.
func Fig8(cfg Config) ([]InsightRow, error) {
	var rows []InsightRow
	approaches := fig7Approaches()
	for _, sf := range fig8ScaleFactors(cfg) {
		dir, _, err := cfg.Repo(sf, true)
		if err != nil {
			return nil, err
		}
		start, end := cfg.span(sf)
		for _, qt := range []int{4, 5} {
			for _, app := range approaches {
				for _, sel := range cfg.Selectivities {
					t0 := time.Now()
					db, err := openDB(dir, app)
					if err != nil {
						return nil, err
					}
					prep := time.Since(t0)
					row := InsightRow{SF: sf, QueryType: qt, Approach: app, SelectivityPct: sel, Prep: prep}
					if sel > 0 {
						lo, hi := rangeFor(start, end, 0, float64(sel))
						sql := queryOfType(qt, "FIAM", lo, hi)
						t1 := time.Now()
						_, err := db.Query(sql)
						if err != nil {
							return nil, fmt.Errorf("fig8 sf-%d %s T%d sel=%d: %w", sf, app, qt, sel, err)
						}
						row.FirstQuery = time.Since(t1)
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// WorkloadRow is one point of Figure 9: cumulative time of a workload
// of fixed-selectivity queries spread over a fraction of the data
// space (including preparation, as the paper's 0% point shows).
type WorkloadRow struct {
	SF             int
	QueryType      int
	Approach       registrar.Approach
	WorkloadSelPct int
	NQueries       int
	Prep           time.Duration
	Workload       time.Duration
}

// Cumulative is preparation plus workload time.
func (r WorkloadRow) Cumulative() time.Duration { return r.Prep + r.Workload }

// fig9Approach pairs each query type with the best eager contender, as
// in the paper's Figure 9 (eager_dmd for T3, eager_index for T4), plus
// lazy.
func fig9Approaches(qt int) []registrar.Approach {
	if qt == 3 {
		return []registrar.Approach{registrar.EagerDMd, registrar.Lazy}
	}
	return []registrar.Approach{registrar.EagerIndex, registrar.Lazy}
}

// QuerySelectivityPct is the fixed per-query selectivity of Figure 9.
const QuerySelectivityPct = 2.5

// Fig9 replays workloads of n queries with 2.5% query selectivity,
// randomly placed over the leading workloadSel percent of the data
// space (fully covering it), on the FIAM dataset.
func Fig9(cfg Config) ([]WorkloadRow, error) {
	var rows []WorkloadRow
	for _, sf := range fig8ScaleFactors(cfg) {
		dir, _, err := cfg.Repo(sf, true)
		if err != nil {
			return nil, err
		}
		start, end := cfg.span(sf)
		for _, qt := range []int{3, 4} {
			for _, app := range fig9Approaches(qt) {
				for _, wsel := range cfg.Selectivities {
					for _, n := range cfg.WorkloadSizes {
						rng := rand.New(rand.NewSource(cfg.Seed + int64(wsel*1000+n)))
						t0 := time.Now()
						db, err := openDB(dir, app)
						if err != nil {
							return nil, err
						}
						prep := time.Since(t0)
						row := WorkloadRow{
							SF: sf, QueryType: qt, Approach: app,
							WorkloadSelPct: wsel, NQueries: n, Prep: prep,
						}
						if wsel > 0 {
							t1 := time.Now()
							for i := 0; i < n; i++ {
								// Random placement over the workload
								// space, with full coverage ensured by
								// striding the first ⌈w/q⌉ queries.
								maxOff := float64(wsel) - QuerySelectivityPct
								if maxOff < 0 {
									maxOff = 0
								}
								var off float64
								stride := int(float64(wsel)/QuerySelectivityPct) + 1
								if i < stride {
									off = float64(i) * QuerySelectivityPct
									if off > maxOff {
										off = maxOff
									}
								} else {
									off = rng.Float64() * maxOff
								}
								lo, hi := rangeFor(start, end, off, QuerySelectivityPct)
								sql := queryOfType(qt, "FIAM", lo, hi)
								_, err := db.Query(sql)
								if err != nil {
									return nil, fmt.Errorf("fig9 sf-%d %s T%d w=%d: %w", sf, app, qt, wsel, err)
								}
							}
							row.Workload = time.Since(t1)
						}
						rows = append(rows, row)
					}
				}
			}
		}
	}
	return rows, nil
}
