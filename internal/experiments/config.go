// Package experiments regenerates every table and figure of the
// paper's evaluation section at laptop scale: Table II (dataset
// characteristics), Table III (dataset sizes), Figure 6 (loading cost
// breakdown), Figure 7 (single-query performance, cold and hot),
// Figure 8 (data-to-insight time vs. query selectivity) and Figure 9
// (workload performance vs. workload selectivity), plus three
// ablations: serial vs parallel loading, recycler policy, join rules.
//
// Scale factors keep the paper's 1:3:9:27 shape; absolute sizes are
// configurable so the full suite runs in seconds on a laptop while the
// relative behaviour (who wins, by what factor, where the crossovers
// fall) matches the paper.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/mseed"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/table"
)

// Config parameterizes the experiment suite.
type Config struct {
	// WorkDir is where repositories are generated.
	WorkDir string
	// BaseDays is the repository span at sf-1 (paper: 40 days).
	BaseDays int
	// SamplesPerFile scales the per-chunk data volume.
	SamplesPerFile int
	// ScaleFactors to run; subsets of {1, 3, 9, 27}.
	ScaleFactors []int
	// WorkloadSizes for Figure 9 (paper: 100 and 200 queries).
	WorkloadSizes []int
	// Selectivities (percent) for Figures 8 and 9.
	Selectivities []int
	// Seed for repository generation.
	Seed int64
}

// DefaultConfig returns the configuration used by the benchmark
// harness: full scale-factor range at laptop volume.
func DefaultConfig(workDir string) Config {
	return Config{
		WorkDir:        workDir,
		BaseDays:       8,
		SamplesPerFile: 2400,
		ScaleFactors:   []int{1, 3, 9, 27},
		WorkloadSizes:  []int{100, 200},
		Selectivities:  []int{0, 10, 20, 40, 60, 80, 100},
		Seed:           2015,
	}
}

// TinyConfig returns a minimal configuration for tests.
func TinyConfig(workDir string) Config {
	return Config{
		WorkDir:        workDir,
		BaseDays:       2,
		SamplesPerFile: 300,
		ScaleFactors:   []int{1, 3},
		WorkloadSizes:  []int{5},
		Selectivities:  []int{0, 50, 100},
		Seed:           7,
	}
}

// repoStart is the first day of every generated repository.
var repoStart = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)

// repoConfig derives the generator configuration for one scale factor.
// fiamOnly generates the single-station FIAM dataset of §VI-D/E.
func (c Config) repoConfig(sf int, fiamOnly bool) seisgen.Config {
	gen := seisgen.DefaultConfig(c.BaseDays * sf)
	gen.Seed = c.Seed
	gen.Start = repoStart
	gen.SamplesPerFile = c.SamplesPerFile
	gen.MeanSegments = 12
	gen.EventRate = 0.15
	if fiamOnly {
		gen.Stations = gen.Stations[:1] // FIAM
	}
	return gen
}

// Repo generates (or reuses) the repository for one scale factor and
// returns its directory and manifest.
func (c Config) Repo(sf int, fiamOnly bool) (string, *seisgen.Manifest, error) {
	name := fmt.Sprintf("sf-%d", sf)
	if fiamOnly {
		name = "fiam-" + name
	}
	dir := filepath.Join(c.WorkDir, name)
	if _, err := os.Stat(dir); err == nil {
		// Regenerate deterministically only if absent; a manifest is
		// rebuilt from the same generator parameters.
		man, err := regenManifest(dir, c.repoConfig(sf, fiamOnly))
		if err == nil {
			return dir, man, nil
		}
		// Fall through to regeneration on any inconsistency.
		if err := os.RemoveAll(dir); err != nil {
			return "", nil, err
		}
	}
	man, err := seisgen.Generate(dir, c.repoConfig(sf, fiamOnly))
	if err != nil {
		return "", nil, err
	}
	return dir, man, nil
}

// regenManifest re-synthesizes the manifest of an existing repository
// without touching the files (generation is deterministic).
func regenManifest(dir string, gen seisgen.Config) (*seisgen.Manifest, error) {
	man := &seisgen.Manifest{Dir: dir}
	for _, st := range gen.Stations {
		for _, ch := range st.Channels {
			for day := 0; day < gen.Days; day++ {
				date := gen.Start.AddDate(0, 0, day)
				name := fmt.Sprintf("%s.%s.%s.%s.msl", st.Network, st.Name, ch, date.Format("2006.002"))
				path := filepath.Join(dir, st.Name, ch, name)
				fi, err := os.Stat(path)
				if err != nil {
					return nil, err
				}
				f := seisgen.Synthesize(gen, st, ch, date)
				man.Files = append(man.Files, seisgen.FileInfo{
					URI:       path,
					Header:    f.Header,
					Segments:  segHeaders(f),
					Samples:   f.SampleCount(),
					SizeBytes: fi.Size(),
				})
			}
		}
	}
	return man, nil
}

func segHeaders(f *mseed.File) []mseed.SegmentHeader {
	out := make([]mseed.SegmentHeader, len(f.Segments))
	for i, s := range f.Segments {
		out[i] = s.Header
	}
	return out
}

// span returns the [start, end) time range of a repository at the
// given scale factor.
func (c Config) span(sf int) (int64, int64) {
	start := repoStart.UnixNano()
	end := repoStart.AddDate(0, 0, c.BaseDays*sf).UnixNano()
	return start, end
}

// openDB opens a database with the T3 metadata view registered.
func openDB(dir string, approach registrar.Approach) (*engine.DB, error) {
	db, err := engine.Open(dir, engine.Config{Approach: approach})
	if err != nil {
		return nil, err
	}
	err = db.Catalog().AddView(&table.View{
		Name:   "windowdataview_md",
		Tables: []string{seismic.TableF, seismic.TableH},
		Joins: []table.JoinPred{
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
		},
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}
