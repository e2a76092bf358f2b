package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sommelier/internal/exec"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/storage"
)

// genSegRepo generates a repository whose chunks span several batches
// and segments, so that loading a subset of a chunk's segments changes
// the scan's batch list.
func genSegRepo(t testing.TB) (string, *seisgen.Manifest) {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(2)
	cfg.SamplesPerFile = 40000
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dir, man
}

// segmentQueries is the engine bag plus every distinct query shape of
// the service benchmark — one-minute and two-second probes inside one
// segment, whole-day exports, the hot scans, the T1–T3 point lookups —
// plus float aggregates over a strict subset of a chunk's segments,
// whose rounding depends on the rows they fold, and scans of D without
// a metadata branch.
func segmentQueries(man *seisgen.Manifest) []string {
	at := func(ns int64) string {
		return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000")
	}
	qs := pruneBag()
	for i, f := range man.Files {
		if i%2 == 0 {
			continue // one day of each station
		}
		st, segs := f.Header.Station, f.Segments
		mid, last := segs[len(segs)/2].StartTime, segs[len(segs)-1].StartTime
		day := mid - mid%int64(24*time.Hour)
		qs = append(qs,
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(mid), at(mid+int64(time.Minute))),
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(segs[0].StartTime+int64(time.Second)), at(segs[0].StartTime+3*int64(time.Second))),
			fmt.Sprintf(`SELECT STDDEV(D.sample_value), AVG(D.sample_value * 0.1), COUNT(*) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(segs[1%len(segs)].StartTime), at(last)),
			fmt.Sprintf(`SELECT AVG(D.sample_value) FROM windowdataview WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s' AND H.window_max_val > -1000000000 AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(mid), at(last), at(mid), at(last)),
			fmt.Sprintf(`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
				st, at(day), at(day+int64(24*time.Hour))),
			fmt.Sprintf(`SELECT D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s' ORDER BY D.sample_value DESC LIMIT 10`,
				st, at(mid), at(last)),
			fmt.Sprintf(`SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md WHERE F.station = '%s' AND H.window_start_ts >= '%s' AND H.window_start_ts < '%s'`,
				st, at(day), at(mid)),
		)
	}
	return append(qs,
		`SELECT F.station, AVG(D.sample_value), COUNT(*) FROM dataview WHERE D.sample_time >= '2010-01-02T00:00:00.000' AND D.sample_time < '2010-01-03T00:00:00.000' GROUP BY F.station ORDER BY F.station`,
		`SELECT COUNT(*), SUM(D.sample_value), STDDEV(D.sample_value) FROM D`,
		`SELECT D.segment_id, COUNT(*) FROM D WHERE D.sample_time < '2010-01-01T04:00:00.000' GROUP BY D.segment_id ORDER BY D.segment_id`,
	)
}

// digestBits identifies a result bit for bit — every column in row
// order, floats by their bits — cheaply enough for whole-day exports.
func digestBits(res *Result) string {
	h := fnv.New64a()
	flat := res.Rel.Flatten()
	var buf [8]byte
	for _, c := range flat.Cols {
		for r := 0; r < flat.Len(); r++ {
			switch v := storage.ValueAt(c, r).(type) {
			case float64:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			case int64:
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			default:
				fmt.Fprintf(h, "%v|", v)
			}
		}
	}
	return fmt.Sprintf("%d rows, digest %x", flat.Len(), h.Sum64())
}

// runBits runs every query of qs (in the order given by perm, nil: as
// listed) and digests each result bit for bit, indexed like qs.
func runBits(t *testing.T, db *DB, qs []string, perm []int) []string {
	t.Helper()
	out := make([]string, len(qs))
	if perm == nil {
		for i := range qs {
			perm = append(perm, i)
		}
	}
	for _, qi := range perm {
		res, err := db.Query(qs[qi])
		if err != nil {
			t.Fatalf("query %d: %v\n%s", qi, err, qs[qi])
		}
		out[qi] = digestBits(res)
		res.Release()
	}
	return out
}

func openSeg(t *testing.T, dir string, cfg Config) *DB {
	t.Helper()
	cfg.OptDisable = "none"
	db, err := openChecked(t, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := addMetadataView(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// wholeReference answers qs, in the order perm gives, from chunks
// loaded whole: a scan of D first makes every chunk resident with all
// its segments, so no query can load part of one. Answers do not depend
// on the ingestion fan-out, so it serves every fan-out.
func wholeReference(t *testing.T, dir string, qs []string, perm []int) []string {
	t.Helper()
	db := openSeg(t, dir, Config{Approach: registrar.Lazy, MaxParallel: 1})
	defer db.Close()
	res, err := db.Query(`SELECT COUNT(*) FROM D`)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if st := db.ChunkStats(); st.Partial != 0 {
		t.Fatalf("%d partial chunks after a scan of D", st.Partial)
	}
	return runBits(t, db, qs, perm)
}

func diffBits(t *testing.T, what string, qs, got, want []string) {
	t.Helper()
	for qi := range qs {
		if got[qi] != want[qi] {
			t.Errorf("%s: query %d diverges:\n%s\ngot:\n%s\nwant:\n%s", what, qi, qs[qi], got[qi], want[qi])
		}
	}
}

// TestSegmentLoadingBitwise holds segment-granular loading to the
// answers of whole-chunk loading bit for bit — floats at full
// precision, rows in order: cold at ingestion fan-outs 1, 2, 4 and 8,
// where the eager approaches, which install whole chunks, must answer
// at every fan-out as they do at 1 (eager_index, whose chunks are the
// lazy ones, as the lazy reference); through
// a 4 MiB recycler in shuffled orders that put narrow queries before
// wide ones, so that entries are widened while others are evicted; and
// across a disk-tier warm restart whose blocks hold part of their
// chunks.
func TestSegmentLoadingBitwise(t *testing.T) {
	dir, man := genSegRepo(t)
	qs := segmentQueries(man)
	want := wholeReference(t, dir, qs, nil)
	for _, app := range []registrar.Approach{
		registrar.Lazy, registrar.EagerIndex, registrar.EagerDMd, registrar.EagerCSV, registrar.EagerPlain,
	} {
		ref := want
		for _, par := range []int{1, 2, 4, 8} {
			db := openSeg(t, dir, Config{Approach: app, MaxParallel: par})
			got := runBits(t, db, qs, nil)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if par == 1 && app != registrar.Lazy && app != registrar.EagerIndex {
				// One monolithic chunk, or H derived at load in an order
				// of its own: the approach is its own reference.
				ref = got
				continue
			}
			diffBits(t, fmt.Sprintf("%s dop %d", app, par), qs, got, ref)
		}
	}

	t.Run("4MiB-narrow-then-wide", func(t *testing.T) {
		var narrow, wide []int
		for qi, q := range qs {
			if containsAll(q, "F.station = ", "D.sample_time >= ") || containsAll(q, "H.window_start_ts >= ") {
				narrow = append(narrow, qi)
			} else {
				wide = append(wide, qi)
			}
		}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			perm := make([]int, 0, len(qs))
			for _, i := range rng.Perm(len(narrow)) {
				perm = append(perm, narrow[i])
			}
			for _, i := range rng.Perm(len(wide)) {
				perm = append(perm, wide[i])
			}
			// Derived metadata grows in query order: the reference runs
			// the same order.
			want := wholeReference(t, dir, qs, perm)
			for _, par := range []int{1, 4} {
				db := openSeg(t, dir, Config{Approach: registrar.Lazy, MaxParallel: par, CacheBytes: 4 << 20})
				diffBits(t, fmt.Sprintf("seed %d dop %d", seed, par), qs, runBits(t, db, qs, perm), want)
				st := db.ChunkStats()
				if cs := db.CacheStats(); st.Topups == 0 || cs.Evictions == 0 {
					t.Fatalf("seed %d: no top-up under eviction: %+v, %+v", seed, st, cs)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})

	t.Run("disk-tier-warm-restart", func(t *testing.T) {
		cacheDir := t.TempDir()
		cfg := Config{Approach: registrar.Lazy, CacheBytes: 4 << 20, CacheDir: cacheDir}
		db := openSeg(t, dir, cfg)
		var narrow []int
		for qi, q := range qs {
			if containsAll(q, "AVG(D.sample_value) FROM dataview WHERE F.station = ", "D.sample_time < ") {
				narrow = append(narrow, qi)
			}
		}
		runBits(t, db, qs, narrow)
		if st := db.ChunkStats(); st.Partial == 0 {
			t.Fatalf("narrow queries left no partial chunk: %+v", st)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = openSeg(t, dir, cfg)
		defer db.Close()
		diffBits(t, "warm restart", qs, runBits(t, db, qs, nil), want)
		if s := db.DiskCacheStats(); s.Promotes == 0 || s.CorruptBlocks != 0 {
			t.Fatalf("disk tier after the restart: %+v", s)
		}
	})
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestSegmentLoadTopUp: a one-segment query on a cold chunk loads that
// segment's rows and no more; a whole-day query on the chunk then widens
// it with one load, after which a scan of D, which needs every segment,
// is a cache hit.
func TestSegmentLoadTopUp(t *testing.T) {
	dir, man := genSegRepo(t)
	db := openSeg(t, dir, Config{Approach: registrar.Lazy})
	defer db.Close()
	var f seisgen.FileInfo
	for _, f = range man.Files {
		if len(f.Segments) >= 3 {
			break
		}
	}
	seg := f.Segments[len(f.Segments)/2]
	at := func(ns int64) string { return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000") }
	query := func(sql string) exec.Stats {
		t.Helper()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		return res.Stats
	}

	st := query(fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		f.Header.Station, at(seg.StartTime+int64(time.Second)), at(seg.StartTime+2*int64(time.Second))))
	if st.ChunksLoaded != 1 || st.RowsLoaded != int64(seg.SampleCount) {
		t.Fatalf("one-segment query loaded %d chunks, %d rows; want 1 chunk, %d rows", st.ChunksLoaded, st.RowsLoaded, seg.SampleCount)
	}
	if cs := db.ChunkStats(); cs.Partial != 1 || cs.Topups != 0 {
		t.Fatalf("after the narrow query: %+v", cs)
	}

	day := seg.StartTime - seg.StartTime%int64(24*time.Hour)
	st = query(fmt.Sprintf(`SELECT COUNT(*) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		f.Header.Station, at(day), at(day+int64(24*time.Hour))))
	if st.ChunksLoaded != 1 || st.RowsLoaded != int64(f.Samples) {
		t.Fatalf("whole-day query loaded %d chunks, %d rows; want 1 chunk, %d rows", st.ChunksLoaded, st.RowsLoaded, f.Samples)
	}
	if cs := db.ChunkStats(); cs.Partial != 0 || cs.Topups != 1 || cs.Resident != 1 {
		t.Fatalf("after the whole-day query: %+v", cs)
	}

	st = query(`SELECT COUNT(*) FROM D`)
	if st.CacheHits != 1 || st.ChunksLoaded != len(man.Files)-1 {
		t.Fatalf("scan of D: %d hits, %d loads; want 1 hit, %d loads", st.CacheHits, st.ChunksLoaded, len(man.Files)-1)
	}
}
