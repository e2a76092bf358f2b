// Package registrar implements repository registration and the five
// loading approaches of the paper's evaluation:
//
//	eager_csv    mSEED → CSV → parse → monolithic table
//	eager_plain  mSEED → monolithic table directly
//	eager_index  eager_plain + clustering by chunk + key indexes
//	eager_dmd    eager_index + eager derivation of all DMd (driven by
//	             the engine, which owns the derivation machinery)
//	lazy         metadata extraction only; actual data is ingested
//	             during query evaluation
//
// The Registrar proper — eager loading of given metadata — iterates
// over all files of a repository and bulk-loads their control headers
// into the metadata tables, handling multiple files in parallel.
package registrar

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/csvio"
	"sommelier/internal/fault"
	"sommelier/internal/index"
	"sommelier/internal/mseed"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// Approach names a loading strategy.
type Approach string

// The five loading approaches.
const (
	EagerCSV   Approach = "eager_csv"
	EagerPlain Approach = "eager_plain"
	EagerIndex Approach = "eager_index"
	EagerDMd   Approach = "eager_dmd"
	Lazy       Approach = "lazy"
)

// Approaches lists all strategies in the paper's presentation order.
func Approaches() []Approach {
	return []Approach{EagerCSV, EagerPlain, EagerIndex, EagerDMd, Lazy}
}

// MonolithChunkID is the pseudo chunk ID under which eager_csv and
// eager_plain store all actual data as one contiguous relation.
const MonolithChunkID int64 = -1

// CostBreakdown itemizes preparation cost, matching the stacked bars of
// the paper's Figure 6.
type CostBreakdown struct {
	MseedToCSV    time.Duration // serialize chunks to CSV text
	CSVToDB       time.Duration // parse CSV into the database
	MseedToDB     time.Duration // direct binary ingestion
	Indexing      time.Duration // clustering + key index construction
	DMdDerivation time.Duration // filled in by the engine for eager_dmd
}

// Total sums all components.
func (c CostBreakdown) Total() time.Duration {
	return c.MseedToCSV + c.CSVToDB + c.MseedToDB + c.Indexing + c.DMdDerivation
}

// Report summarizes one registration run.
type Report struct {
	Approach  Approach
	Files     int
	Segments  int
	Rows      int64
	Breakdown CostBreakdown
	// MetadataTime is the cost of extracting and loading the given
	// metadata (all approaches pay it; for lazy it is the whole
	// investment).
	MetadataTime time.Duration
	// Sizes for Table III.
	MseedBytes    int64 // repository size on disk
	CSVBytes      int64 // textual representation (eager_csv only)
	DataBytes     int64 // resident actual data
	MetadataBytes int64 // resident metadata (GMd)
	IndexBytes    int64 // key / join index footprint
}

// TotalTime is the complete data-to-queryable investment.
func (r Report) TotalTime() time.Duration { return r.MetadataTime + r.Breakdown.Total() }

// Indexes holds the access-path accelerators built by eager_index (and
// inherited by eager_dmd): hash indexes on the metadata primary keys, a
// secondary index on the station/channel selection columns, the FK join
// index from segments to files, and per-chunk zone maps. FMeta and
// SMeta are the flattened snapshots the hash indexes refer into.
type Indexes struct {
	FMeta    *storage.Batch
	SMeta    *storage.Batch
	FByID    *index.HashIndex        // F.file_id → row
	FByStaCh *index.HashIndex        // (F.station, F.channel) → rows
	SByKey   *index.HashIndex        // (S.file_id, S.segment_id) → row
	SToF     *index.JoinIndex        // S.file_id → F row
	ZoneMaps map[int64]index.ZoneMap // chunk → sample_time bounds
}

// MemSize estimates the index footprint.
func (ix *Indexes) MemSize() int64 {
	if ix == nil {
		return 0
	}
	var n int64
	if ix.FByID != nil {
		n += ix.FByID.MemSize()
	}
	if ix.FByStaCh != nil {
		n += ix.FByStaCh.MemSize()
	}
	if ix.SByKey != nil {
		n += ix.SByKey.MemSize()
	}
	if ix.SToF != nil {
		n += ix.SToF.MemSize()
	}
	n += int64(len(ix.ZoneMaps)) * 24
	return n
}

// Source abstracts where a chunk repository lives: a local directory,
// an HTTP archive (see HTTPRepository), or anything else that can
// enumerate chunks and stream their bytes. The paper's future-work
// section (§VIII, "Other Sources") motivates exactly this seam.
type Source interface {
	// URIs lists the chunk identifiers; position = chunk ID.
	URIs() []string
	// Open streams the raw bytes of one chunk; a source that fetches
	// them (the HTTP repository's retry/backoff ladder) stops when ctx
	// ends.
	Open(ctx context.Context, chunkID int64) (io.ReadCloser, error)
}

// FaultConfigurable is implemented by sources that accept a
// fault-injection schedule (the engine wires Config.Faults through
// it).
type FaultConfigurable interface {
	SetFaults(*fault.Injector)
}

// faultSource exposes a source's effective injector to the shared
// chunk-decode path.
type faultSource interface {
	faultInjector() *fault.Injector
}

func injectorFor(src Source) *fault.Injector {
	if fs, ok := src.(faultSource); ok {
		return fs.faultInjector()
	}
	return nil
}

// ChunkSource is the full contract the engine needs from a repository:
// enumeration and streaming (Source) plus the chunk-access operator the
// chunk store loads through (chunkstore.Loader's method set).
type ChunkSource interface {
	Source
	LoadChunkInto(ctx context.Context, tableName string, chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error)
	AllChunkIDs(tableName string) []int64
}

// Repository is a registered local chunk repository: the file list with
// assigned chunk IDs. It implements ChunkSource.
type Repository struct {
	Dir  string
	Uris []string // position = chunk ID
	// Faults is the fault-injection schedule for this repository; nil
	// injects nothing. Local repositories only honor the mseed.decode
	// point.
	Faults *fault.Injector

	// fetches counts raw archive opens (metadata registration and
	// chunk loads alike); the warm-restart tests assert it stays zero
	// when the disk tier and metadata snapshot serve everything.
	fetches atomic.Int64
}

// FetchCount reports how many times the raw archive was opened.
func (r *Repository) FetchCount() int64 { return r.fetches.Load() }

// SetFaults overrides the repository's fault-injection schedule.
func (r *Repository) SetFaults(in *fault.Injector) { r.Faults = in }

func (r *Repository) faultInjector() *fault.Injector { return r.Faults }

// DiscoverRepository lists the chunk files under dir in deterministic
// order (sorted by path), assigning chunk IDs by position.
func DiscoverRepository(dir string) (*Repository, error) {
	var uris []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".msl") {
			uris = append(uris, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(uris) == 0 {
		return nil, fmt.Errorf("registrar: no chunk files under %s", dir)
	}
	sort.Strings(uris)
	return &Repository{Dir: dir, Uris: uris}, nil
}

// URIs implements Source.
func (r *Repository) URIs() []string { return r.Uris }

// URI returns the path of a chunk.
func (r *Repository) URI(chunkID int64) (string, error) {
	if chunkID < 0 || chunkID >= int64(len(r.Uris)) {
		return "", fmt.Errorf("registrar: chunk %d out of range", chunkID)
	}
	return r.Uris[chunkID], nil
}

// Open implements Source.
func (r *Repository) Open(_ context.Context, chunkID int64) (io.ReadCloser, error) {
	uri, err := r.URI(chunkID)
	if err != nil {
		return nil, err
	}
	r.fetches.Add(1)
	return os.Open(uri)
}

// TotalBytes reports the on-disk repository size (for Table III).
func (r *Repository) TotalBytes() int64 {
	var n int64
	for _, uri := range r.Uris {
		if fi, err := os.Stat(uri); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// AllChunkIDs implements chunkstore.Loader.
func (r *Repository) AllChunkIDs(tableName string) []int64 {
	return allChunkIDs(r)
}

// LoadChunk is the chunk-access operator of a whole chunk into fresh
// memory: LoadChunkInto of every segment, without a ChunkMem.
func (r *Repository) LoadChunk(tableName string, chunkID int64) (*storage.Relation, error) {
	rel, _, err := r.LoadChunkInto(context.Background(), tableName, chunkID, nil, nil)
	return rel, err
}

// LoadChunkInto implements chunkstore.Loader: the chunk-access operator.
func (r *Repository) LoadChunkInto(ctx context.Context, tableName string, chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	return LoadChunkFromSource(ctx, r, tableName, chunkID, segs, mem)
}

func allChunkIDs(src Source) []int64 {
	ids := make([]int64, len(src.URIs()))
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// LoadChunkFromSource is the chunk-access operator over any source: it
// decodes the segments of one chunk whose IDs segs holds (sorted; nil:
// every one) through the domain codec and transforms them into the D
// schema, materializing per-sample timestamps. It returns the relation
// with its coverage: segs, or nil when segs names every segment of the
// file. Every payload is checksummed, selected or not. The file is
// buffered in mem's scratch and the chunk lands in an arena taken from
// it (ChunkToRelationInto) sized for the selected segments; a nil mem
// allocates. The source gets ctx for the byte fetch, and the
// mseed.decode fault point can corrupt or fail the payload before
// decoding.
func LoadChunkFromSource(ctx context.Context, src Source, tableName string, chunkID int64, segs []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	if tableName != seismic.TableD {
		return nil, nil, fmt.Errorf("registrar: unknown actual-data table %q", tableName)
	}
	rc, err := src.Open(ctx, chunkID)
	if err != nil {
		return nil, nil, err
	}
	defer rc.Close()
	var body io.Reader = rc
	if act := injectorFor(src).Check(fault.PointDecode); act.Err != nil || act.Delay > 0 || act.Corrupt {
		if err := act.Wait(ctx); err != nil {
			return nil, nil, err
		}
		if act.Err != nil {
			return nil, nil, fmt.Errorf("registrar: chunk-access %d: %w", chunkID, act.Err)
		}
		if act.Corrupt {
			body = fault.CorruptReader(body, act.CorruptSeed)
		}
	}
	var sc mseed.Scratch
	if mem != nil {
		sc = mseed.Scratch{Buf: mem.Buf, Samples: mem.Samples}
		defer func() { mem.Buf, mem.Samples = sc.Buf, sc.Samples }()
	}
	f, err := mseed.ReadInto(body, &sc, segs)
	if err != nil {
		return nil, nil, fmt.Errorf("registrar: chunk-access %d: %w", chunkID, err)
	}
	if !f.Partial() {
		segs = nil
	}
	return ChunkToRelationInto(chunkID, f, mem), segs, nil
}

// ChunkToRelation converts a decoded chunk into the D table layout,
// batch by batch within each segment. Only what the files alone hold is
// written per row: sample_value and sample_time, into one arena each
// per chunk. What the segment headers already state becomes run-shaped
// columns — file_id and segment_id one run per batch, window_ts a run
// per window the batch's samples cross — and the relation's zone maps
// are seeded from the same pass, so a freshly loaded chunk is scanned
// without a single bounds computation.
func ChunkToRelation(chunkID int64, f *mseed.File) *storage.Relation {
	return ChunkToRelationInto(chunkID, f, nil)
}

// ChunkToRelationInto is ChunkToRelation writing sample_time and
// sample_value into an arena taken from mem; a nil mem allocates.
//
// A segment a filtered read skipped keeps its place as empty batches,
// as many as its rows would fill: every load of a chunk, whatever its
// segments, has the whole chunk's batch layout, so stage two cuts the
// same morsel ranges over it and range-partitioned float aggregates
// round the same way.
//
// A segment whose timestamps never decrease and never wrap costs per
// batch, past the fill, only its ends, for the sample_time zone, and one
// search per window it crosses. Any other segment — only a hostile
// header makes one — takes its zone and windows row by row.
func ChunkToRelationInto(chunkID int64, f *mseed.File, mem *storage.ChunkMem) *storage.Relation {
	total := f.SampleCount()
	arena := mem.TakeArena(total, total)
	// The fill is a pass of its own: with none of the batch loop's state
	// live yet, the row loop stays in registers.
	nBatches := 0
	for off, si := 0, 0; si < len(f.Segments); si++ {
		seg := &f.Segments[si]
		n := len(seg.Samples)
		ts, vals := arena.Ints[off:off+n:off+n], arena.Floats[off:off+n:off+n]
		start, period := seg.Header.StartTime, seg.Header.PeriodNS()
		for i, v := range seg.Samples {
			ts[i], vals[i] = start+int64(float64(i)*period), float64(v)
		}
		off += n
		if seg.Skipped {
			n = int(seg.Header.SampleCount)
		}
		nBatches += (n + storage.BatchSize - 1) / storage.BatchSize
	}
	var (
		runVals = make([]int64, 0, 4*nBatches) // per batch: file, segment, 2 windows
		runEnds = make([]int32, 0, 4*nBatches)
		batches = make([]*storage.Batch, 0, nBatches)
		zones   = make([][]storage.Zone, 0, nBatches)
	)
	// run cuts the last n appended runs off the arenas as one column.
	run := func(kind storage.Kind, n int) *storage.RunColumn {
		at, end := len(runVals)-n, len(runVals)
		return storage.NewRunColumn(kind, runVals[at:end:end], runEnds[at:end:end])
	}
	const window = int64(seismic.WindowDuration)
	tsAll, valAll := arena.Ints, arena.Floats
	var hollow *storage.Batch
	for _, seg := range f.Segments {
		if seg.Skipped {
			if hollow == nil {
				hollow = storage.NewBatch(storage.NewInt64Column(nil), storage.NewInt64Column(nil),
					storage.NewTimeColumn(nil), storage.NewFloat64Column(nil), storage.NewTimeColumn(nil))
			}
			for lo := 0; lo < int(seg.Header.SampleCount); lo += storage.BatchSize {
				batches, zones = append(batches, hollow), append(zones, nil)
			}
			continue
		}
		n := len(seg.Samples)
		ts, vals := tsAll[:n:n], valAll[:n:n]
		tsAll, valAll = tsAll[n:], valAll[n:]
		start, period := seg.Header.StartTime, seg.Header.PeriodNS()
		// Sorted: a positive rate makes the offsets non-decreasing; the
		// last, below 2^63 (defined conversion, no NaN), keeps every row
		// and its window's end below MaxInt64. Near MinInt64 WindowStart
		// may wrap, but adding a window wraps back onto the next boundary.
		span := float64(n-1) * period
		sorted := seg.Header.SampleRate > 0 && span < 1<<63 && start <= math.MaxInt64-window-int64(span)
		for lo := 0; lo < n; lo += storage.BatchSize {
			hi := min(lo+storage.BatchSize, n)
			rows := int32(hi - lo)
			runVals, runEnds = append(runVals, chunkID), append(runEnds, rows)
			fileID := run(storage.KindInt64, 1)
			runVals, runEnds = append(runVals, int64(seg.Header.ID)), append(runEnds, rows)
			segID := run(storage.KindInt64, 1)

			tsCol := storage.NewTimeColumn(ts[lo:hi])
			tz := storage.Zone{Min: ts[lo], Max: ts[hi-1], Ok: true}
			if !sorted {
				tz = storage.ColumnZone(tsCol)
			}
			// A window's run ends at the first row of another window: found
			// by search in a sorted segment, row by row otherwise.
			wins := 0
			for i := lo; i < hi; wins++ {
				win, j := seismic.WindowStart(ts[i]), i+1
				if sorted {
					next := win + window
					j += sort.Search(hi-j, func(k int) bool { return ts[j+k] >= next })
				} else {
					for j < hi && seismic.WindowStart(ts[j]) == win {
						j++
					}
				}
				runVals, runEnds = append(runVals, win), append(runEnds, int32(j-lo))
				i = j
			}
			winTS := run(storage.KindTime, wins)
			batches = append(batches, storage.NewBatch(
				fileID, segID, tsCol,
				storage.NewFloat64Column(vals[lo:hi]),
				winTS,
			))
			zones = append(zones, []storage.Zone{
				storage.ColumnZone(fileID), storage.ColumnZone(segID), tz, {}, storage.ColumnZone(winTS),
			})
		}
	}
	return storage.NewChunkRelation(batches, zones)
}

// RegisterMetadata is the Registrar module: it extracts the given
// metadata of every chunk in parallel and bulk-loads tables F and S.
func RegisterMetadata(cat *table.Catalog, src Source) (int, time.Duration, error) {
	start := time.Now()
	uris := src.URIs()
	type meta struct {
		hdr  mseed.FileHeader
		segs []mseed.SegmentHeader
		err  error
	}
	metas := make([]meta, len(uris))
	par := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := range uris {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rc, err := src.Open(context.TODO(), int64(i))
			if err != nil {
				metas[i] = meta{err: err}
				return
			}
			hdr, segs, err := mseed.ReadMetadata(rc)
			rc.Close()
			metas[i] = meta{hdr: hdr, segs: segs, err: err}
		}(i)
	}
	wg.Wait()

	fT, _ := cat.Table(seismic.TableF)
	sT, _ := cat.Table(seismic.TableS)
	nSegs := 0
	fb := newFBatch(len(metas))
	sb := newSBatch(0)
	for i, m := range metas {
		if m.err != nil {
			return 0, 0, fmt.Errorf("registrar: %s: %w", uris[i], m.err)
		}
		fb.add(int64(i), uris[i], m.hdr)
		for _, sh := range m.segs {
			sb.add(int64(i), sh)
			nSegs++
		}
	}
	if err := fT.Append(fb.batch()); err != nil {
		return 0, 0, err
	}
	if err := sT.Append(sb.batch()); err != nil {
		return 0, 0, err
	}
	return nSegs, time.Since(start), nil
}

// fBatch accumulates F rows.
type fBatch struct {
	ids                                       *storage.Int64Builder
	uris, nets, stas, locs, chans, quals, bos *storage.StringBuilder
	encs                                      *storage.Int64Builder
}

func newFBatch(capacity int) *fBatch {
	return &fBatch{
		ids:   storage.NewInt64Builder(capacity),
		uris:  storage.NewStringBuilder(capacity),
		nets:  storage.NewStringBuilder(capacity),
		stas:  storage.NewStringBuilder(capacity),
		locs:  storage.NewStringBuilder(capacity),
		chans: storage.NewStringBuilder(capacity),
		quals: storage.NewStringBuilder(capacity),
		encs:  storage.NewInt64Builder(capacity),
		bos:   storage.NewStringBuilder(capacity),
	}
}

func (b *fBatch) add(id int64, uri string, h mseed.FileHeader) {
	b.ids.Append(id)
	b.uris.Append(uri)
	b.nets.Append(h.Network)
	b.stas.Append(h.Station)
	b.locs.Append(h.Location)
	b.chans.Append(h.Channel)
	b.quals.Append(h.Quality)
	b.encs.Append(int64(h.Encoding))
	b.bos.Append(h.ByteOrder)
}

func (b *fBatch) batch() *storage.Batch {
	return storage.NewBatch(
		b.ids.Finish(), b.uris.Finish(), b.nets.Finish(), b.stas.Finish(),
		b.locs.Finish(), b.chans.Finish(), b.quals.Finish(), b.encs.Finish(), b.bos.Finish(),
	)
}

// sBatch accumulates S rows.
type sBatch struct {
	ids, segs, counts *storage.Int64Builder
	starts, ends      *storage.TimeBuilder
	freqs             *storage.Float64Builder
}

func newSBatch(capacity int) *sBatch {
	return &sBatch{
		ids:    storage.NewInt64Builder(capacity),
		segs:   storage.NewInt64Builder(capacity),
		starts: storage.NewTimeBuilder(capacity),
		ends:   storage.NewTimeBuilder(capacity),
		freqs:  storage.NewFloat64Builder(capacity),
		counts: storage.NewInt64Builder(capacity),
	}
}

func (b *sBatch) add(fileID int64, sh mseed.SegmentHeader) {
	b.ids.Append(fileID)
	b.segs.Append(int64(sh.ID))
	b.starts.Append(sh.StartTime)
	b.ends.Append(sh.EndTime())
	b.freqs.Append(sh.SampleRate)
	b.counts.Append(int64(sh.SampleCount))
}

func (b *sBatch) batch() *storage.Batch {
	return storage.NewBatch(
		b.ids.Finish(), b.segs.Finish(), b.starts.Finish(),
		b.ends.Finish(), b.freqs.Finish(), b.counts.Finish(),
	)
}

// LoadAllPlain ingests every chunk into the monolithic pseudo-chunk:
// the eager_plain (and post-parse eager_csv) data layout.
func LoadAllPlain(cat *table.Catalog, repo Source) (int64, time.Duration, error) {
	start := time.Now()
	rels, err := loadAll(repo)
	if err != nil {
		return 0, 0, err
	}
	mono := storage.NewRelation()
	var rows int64
	for _, rel := range rels {
		for _, b := range rel.Batches() {
			mono.Append(b)
		}
		rows += int64(rel.Rows())
	}
	d, _ := cat.Table(seismic.TableD)
	d.Chunks().Install(MonolithChunkID, mono)
	return rows, time.Since(start), nil
}

// LoadAllClustered ingests every chunk as its own per-chunk relation:
// the physically clustered layout that eager_index pays for.
func LoadAllClustered(cat *table.Catalog, repo Source) (int64, time.Duration, error) {
	start := time.Now()
	rels, err := loadAll(repo)
	if err != nil {
		return 0, 0, err
	}
	d, _ := cat.Table(seismic.TableD)
	var rows int64
	for id, rel := range rels {
		d.Chunks().Install(int64(id), rel)
		rows += int64(rel.Rows())
	}
	return rows, time.Since(start), nil
}

func loadAll(repo Source) ([]*storage.Relation, error) {
	n := len(repo.URIs())
	rels := make([]*storage.Relation, n)
	errs := make([]error, n)
	par := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rels[i], _, errs[i] = LoadChunkFromSource(context.Background(), repo, seismic.TableD, int64(i), nil, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("registrar: loading chunk %d: %w", i, err)
		}
	}
	return rels, nil
}

// LoadAllCSV performs the eager_csv detour: serialize every chunk to a
// CSV file under csvDir, then parse the CSV files into the monolithic
// layout. It returns rows, total CSV bytes and the two cost components.
func LoadAllCSV(cat *table.Catalog, repo Source, csvDir string) (rows, csvBytes int64, toCSV, toDB time.Duration, err error) {
	if err = os.MkdirAll(csvDir, 0o755); err != nil {
		return
	}
	t0 := time.Now()
	paths := make([]string, len(repo.URIs()))
	for i := range paths {
		var rc io.ReadCloser
		rc, err = repo.Open(context.TODO(), int64(i))
		if err != nil {
			return
		}
		var f *mseed.File
		f, err = mseed.Read(rc)
		rc.Close()
		if err != nil {
			return
		}
		paths[i] = filepath.Join(csvDir, fmt.Sprintf("chunk-%06d.csv", i))
		var out *os.File
		out, err = os.Create(paths[i])
		if err != nil {
			return
		}
		if _, err = csvio.ExportChunk(out, int64(i), f); err != nil {
			out.Close()
			return
		}
		if err = out.Close(); err != nil {
			return
		}
		var fi os.FileInfo
		if fi, err = os.Stat(paths[i]); err == nil {
			csvBytes += fi.Size()
		} else {
			return
		}
	}
	toCSV = time.Since(t0)

	t1 := time.Now()
	mono := storage.NewRelation()
	for _, p := range paths {
		var in *os.File
		in, err = os.Open(p)
		if err != nil {
			return
		}
		var rel *storage.Relation
		rel, err = csvio.LoadCSV(in)
		in.Close()
		if err != nil {
			return
		}
		for _, b := range rel.Batches() {
			mono.Append(b)
		}
		rows += int64(rel.Rows())
	}
	d, _ := cat.Table(seismic.TableD)
	d.Chunks().Install(MonolithChunkID, mono)
	toDB = time.Since(t1)
	return
}

// BuildIndexes constructs the eager_index investment: hash indexes on
// the metadata primary keys, the S→F join index and per-chunk zone maps
// on sample_time.
func BuildIndexes(cat *table.Catalog) (*Indexes, time.Duration, error) {
	start := time.Now()
	fT, _ := cat.Table(seismic.TableF)
	sT, _ := cat.Table(seismic.TableS)
	dT, _ := cat.Table(seismic.TableD)
	fFlat := fT.Data().Flatten()
	sFlat := sT.Data().Flatten()
	ix := &Indexes{ZoneMaps: make(map[int64]index.ZoneMap), FMeta: fFlat, SMeta: sFlat}
	var err error
	if fFlat.Len() > 0 {
		ix.FByID, err = index.BuildHash(fFlat, []int{fT.Schema.IndexOf("file_id")})
		if err != nil {
			return nil, 0, err
		}
		ix.FByStaCh, err = index.BuildHash(fFlat, []int{
			fT.Schema.IndexOf("station"), fT.Schema.IndexOf("channel"),
		})
		if err != nil {
			return nil, 0, err
		}
	}
	if sFlat.Len() > 0 {
		ix.SByKey, err = index.BuildHash(sFlat, []int{
			sT.Schema.IndexOf("file_id"), sT.Schema.IndexOf("segment_id"),
		})
		if err != nil {
			return nil, 0, err
		}
		if fFlat.Len() > 0 {
			ix.SToF, err = index.BuildJoin(
				sFlat.Cols[sT.Schema.IndexOf("file_id")],
				fFlat.Cols[fT.Schema.IndexOf("file_id")],
			)
			if err != nil {
				return nil, 0, err
			}
		}
	}
	tsCol := dT.Schema.IndexOf("sample_time")
	chunks := dT.Chunks()
	for _, id := range chunks.IDs() {
		h, ok := chunks.TryAcquire(id, nil)
		if !ok {
			continue
		}
		if flat := h.Rel().Flatten(); flat.Len() > 0 {
			ix.ZoneMaps[id] = index.BuildZoneMap(flat.Cols[tsCol])
		}
		h.Release()
	}
	return ix, time.Since(start), nil
}
