package main

import (
	"fmt"

	"sommelier/internal/seisgen"
)

// scale fixes the input sizes of a run. fullScale is the benchmark;
// the smoke test shrinks every field and nothing else.
type scale struct {
	// Days of archive per station: the cold region. The first HotDays
	// are the hot region, which fits the default recycler.
	Days, HotDays int
	// ScanDays is how many days (= chunks, one station) a hot_scan
	// query touches.
	ScanDays       int
	SamplesPerFile int
	// ColdCacheBytes is the recycler size of the two cold workloads,
	// about a tenth of the decoded cold region.
	ColdCacheBytes int64
	// SampleFloor fails a window that yields fewer latency samples.
	SampleFloor int
	// SetupReps is how many times an untraced run sets up; setup_s is
	// their median.
	SetupReps int
	// TraceQueries of each stream are replayed in-process when tracing;
	// MicroChunks chunks feed the per-chunk layer spans.
	TraceQueries, MicroChunks int
}

// fullScale: 4 stations x 96 days = 384 chunks of 40 000 samples, about
// 15.4 M D rows, 18 MB of archive and 615 MB decoded (1.6 MB a chunk).
// The hot region (32 days, 128 chunks, 205 MB) stays resident under the
// default recycler; the cold region is ten times the 64 MiB the cold
// workloads run with.
var fullScale = scale{
	Days: 96, HotDays: 32, ScanDays: 4, SamplesPerFile: 40000,
	ColdCacheBytes: 64 << 20, SampleFloor: fullFloor, SetupReps: 5,
	TraceQueries: 200, MicroChunks: 16,
}

// bytesPerRow is the decoded width of a D row: five 8-byte columns.
const bytesPerRow = 40

type dataset struct {
	dir string
	cfg seisgen.Config
	man *seisgen.Manifest
}

// generate writes the seeded archive under dir. The seed reaches
// sommelierd only through these files.
func generate(dir string, seed int64, sc scale) (*dataset, error) {
	cfg := seisgen.DefaultConfig(sc.Days)
	cfg.Seed = seed
	cfg.SamplesPerFile = sc.SamplesPerFile
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("generate archive: %w", err)
	}
	return &dataset{dir: dir, cfg: cfg, man: man}, nil
}

func (d *dataset) stations() []string {
	out := make([]string, len(d.cfg.Stations))
	for i, st := range d.cfg.Stations {
		out[i] = st.Name
	}
	return out
}

// dayStart is midnight UTC of the archive's i-th day, in epoch ns.
func (d *dataset) dayStart(i int) int64 {
	return d.cfg.Start.AddDate(0, 0, i).UnixNano()
}

// file is the manifest entry of one station-day; Generate writes
// station-major, one channel per station.
func (d *dataset) file(station, day int) seisgen.FileInfo {
	return d.man.Files[station*d.cfg.Days+day]
}
