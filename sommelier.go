// Package sommelier is a partial-loading-aware analytical database for
// chunked "big" data, reproducing "The DBMS – your Big Data Sommelier"
// (Kargın, Kersten, Manegold, Pirk; ICDE 2015).
//
// Like a good sommelier, the system keeps the bottles (actual waveform
// data) in the cellar (the file repository) and only the labels (the
// given metadata) in its head: registering a repository extracts and
// loads just the per-file and per-segment control headers. Queries are
// evaluated in two stages — the metadata branch Qf first identifies the
// chunks of interest, then a run-time optimizer rewrites the remaining
// plan to cache-scans and chunk-accesses over exactly those chunks.
// Derived metadata (hourly summary windows) is maintained as a
// partially materialized view through the paper's Algorithm 1.
//
// Quick start:
//
//	db, err := sommelier.Open("path/to/repo", sommelier.Config{
//		Approach: sommelier.Lazy,
//	})
//	if err != nil { ... }
//	res, err := db.Query(`
//		SELECT AVG(D.sample_value) FROM dataview
//		WHERE F.station = 'ISK' AND F.channel = 'BHE'
//		  AND D.sample_time > '2010-01-12T22:15:00.000'
//		  AND D.sample_time < '2010-01-12T22:15:02.000'`)
//
// The five loading approaches of the paper's evaluation are all
// available: Lazy (the contribution), EagerCSV, EagerPlain, EagerIndex
// and EagerDMd.
//
// # Concurrency
//
// A DB is safe for concurrent use: any number of goroutines may call
// Query/QueryContext/Run on one open database, under every loading
// approach, and each receives exactly the result serial execution
// would produce. Concurrent queries selecting the same missing chunk
// share a single load (a singleflight keyed by table and chunk ID);
// every chunk a query scans is pinned for the duration of execution,
// so another query's cache eviction defers until the last reader
// releases it; and derived-metadata maintenance (Algorithm 1) is
// serialized, materializing each window at most once. cmd/sommelierd serves
// this guarantee over HTTP with a bounded worker pool; see README.md
// for the service API.
package sommelier

import (
	"fmt"
	"strings"
	"time"

	"sommelier/internal/cache"
	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/stalta"
	"sommelier/internal/storage"
)

// Approach selects a loading strategy.
type Approach = registrar.Approach

// The five loading approaches compared in the paper.
const (
	// Lazy extracts only metadata up front; actual data chunks are
	// ingested just-in-time during query evaluation and cached by the
	// recycler.
	Lazy = registrar.Lazy
	// EagerCSV serializes every chunk to CSV text and bulk-parses it
	// back — the conventional ETL detour.
	EagerCSV = registrar.EagerCSV
	// EagerPlain ingests every chunk directly into one monolithic
	// table before the first query.
	EagerPlain = registrar.EagerPlain
	// EagerIndex additionally clusters the data by chunk and builds
	// key and join indexes.
	EagerIndex = registrar.EagerIndex
	// EagerDMd additionally materializes all derived metadata.
	EagerDMd = registrar.EagerDMd
)

// Cache replacement policies for the recycler.
const (
	// PolicyLRU is the paper's recycler behaviour.
	PolicyLRU = cache.LRU
	// PolicyCostAware weighs reload cost against recency — the
	// paper's "smarter caching" future-work extension.
	PolicyCostAware = cache.CostAware
)

// Config parameterizes Open.
type Config = engine.Config

// DB is an open database over a registered chunk repository.
type DB = engine.DB

// Result is a completed query with execution statistics, the Algorithm
// 1 derivation report and the compiled plan.
type Result = engine.Result

// Stmt is a prepared statement: parsed, planned and optimized once
// (through the compiled-plan cache), executable any number of times —
// concurrently — with per-execution arguments bound to its `?` markers.
type Stmt = engine.Stmt

// PlanCacheStats reports compiled-plan cache activity.
type PlanCacheStats = engine.PlanCacheStats

// Report summarizes registration cost and storage footprint.
type Report = registrar.Report

// Open registers the chunk repository under dir and returns a
// queryable database prepared with the configured loading approach.
func Open(dir string, cfg Config) (*DB, error) { return engine.Open(dir, cfg) }

// OpenHTTP registers a chunk repository served over HTTP (the paper's
// §VIII "Other Sources" extension): the archive exposes an index.txt
// chunk listing at its root and the chunk files underneath. Metadata
// registration and lazy chunk-access stream over the network, each
// request under the archive's fixed retry, breaker, quarantine and
// per-attempt deadline policy (see RELIABILITY.md).
func OpenHTTP(baseURL string, cfg Config) (*DB, error) {
	repo, err := registrar.DiscoverHTTPRepository(baseURL, nil)
	if err != nil {
		return nil, err
	}
	return engine.OpenSource(repo, "", cfg)
}

// WriteHTTPIndex prepares a local repository directory for HTTP
// serving by writing the index.txt chunk listing OpenHTTP expects.
func WriteHTTPIndex(dir string) error { return registrar.WriteIndexFile(dir) }

// RepoConfig parameterizes synthetic repository generation.
type RepoConfig = seisgen.Config

// StationConfig describes one sensor station of a generated repository.
type StationConfig = seisgen.StationConfig

// DefaultRepoConfig returns a laptop-scale repository configuration
// with the paper's shape (4 stations, 1 channel each) spanning the
// given number of days.
func DefaultRepoConfig(days int) RepoConfig { return seisgen.DefaultConfig(days) }

// GenerateRepository writes a synthetic seismic repository under dir.
// It stands in for the paper's INGV Mini-SEED archive and is the
// easiest way to obtain data for the examples and benchmarks.
func GenerateRepository(dir string, cfg RepoConfig) error {
	_, err := seisgen.Generate(dir, cfg)
	return err
}

// Event is a detected seismic event interval (see DetectEvents).
type Event = stalta.Event

// DetectEvents runs the classic STA/LTA trigger over the first
// float64 column of a query result (typically D.sample_value from a
// dataview query, ordered by time): the short-term/long-term averaging
// task the paper's seismologists perform. Window lengths are in
// samples; an event opens when the ratio exceeds trigger and closes
// below detrigger.
func DetectEvents(res *Result, staSamples, ltaSamples int, trigger, detrigger float64) ([]Event, error) {
	flat := res.Rel.Flatten()
	for _, c := range flat.Cols {
		if fc, ok := c.(*storage.Float64Column); ok {
			return stalta.Detect(storage.Float64s(fc), staSamples, ltaSamples, trigger, detrigger)
		}
	}
	return nil, fmt.Errorf("sommelier: result has no numeric value column")
}

// FormatResult renders a query result as an aligned text table.
func FormatResult(res *Result) string {
	flat := res.Rel.Flatten()
	widths := make([]int, len(res.Names))
	rows := make([][]string, flat.Len())
	for c, n := range res.Names {
		widths[c] = len(n)
	}
	for r := 0; r < flat.Len(); r++ {
		row := make([]string, flat.Width())
		for c := 0; c < flat.Width(); c++ {
			row[c] = formatValue(flat.Cols[c], r)
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
		rows[r] = row
	}
	var sb strings.Builder
	for c, n := range res.Names {
		fmt.Fprintf(&sb, "%-*s  ", widths[c], n)
	}
	sb.WriteByte('\n')
	for c := range res.Names {
		sb.WriteString(strings.Repeat("-", widths[c]) + "  ")
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		for c, v := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[c], v)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(%d rows)\n", flat.Len())
	return sb.String()
}

func formatValue(c storage.Column, r int) string {
	switch c := c.(type) {
	case *storage.TimeColumn:
		return time.Unix(0, c.Value(r)).UTC().Format("2006-01-02T15:04:05.000")
	case *storage.Float64Column:
		return fmt.Sprintf("%.4f", c.Value(r))
	default:
		return fmt.Sprintf("%v", storage.ValueAt(c, r))
	}
}
