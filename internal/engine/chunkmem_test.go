package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sommelier/internal/registrar"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// dayScan returns every sample of one station-day: stage two passes the
// chunk's columns through, so a collected result aliases chunk memory.
func dayScan(station string, day int) string {
	from := time.Date(2010, 1, 1+day, 0, 0, 0, 0, time.UTC)
	return fmt.Sprintf(`SELECT D.sample_time, D.sample_value FROM dataview
		WHERE F.station = '%s'
		  AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, from.Format("2006-01-02T15:04:05.000"), from.AddDate(0, 0, 1).Format("2006-01-02T15:04:05.000"))
}

// residentValues returns the sample_value backing of every batch of the
// resident chunks, for alias checks: a request for no segment is
// covered by whatever a resident chunk holds.
func residentValues(t *testing.T, db *DB) [][]float64 {
	t.Helper()
	d, _ := db.cat.Table(seismic.TableD)
	col := d.Schema.IndexOf("sample_value")
	var out [][]float64
	for _, id := range db.chunks.IDs() {
		h, ok := db.chunks.TryAcquire(id, []int64{})
		if !ok {
			continue
		}
		for _, b := range h.Rel().Batches() {
			out = append(out, storage.Float64s(b.Cols[col]))
		}
		h.Release()
	}
	return out
}

// aliases reports whether vals shares its first element with one of the
// resident chunks' sample_value slices.
func aliases(t *testing.T, db *DB, vals []float64) bool {
	for _, c := range residentValues(t, db) {
		if len(c) > 0 && len(vals) > 0 && &c[0] == &vals[0] {
			return true
		}
	}
	return false
}

// churn twice evicts every chunk and loads another, each load writing
// into the arena an evicted chunk released, if any was.
func churn(t *testing.T, db *DB) {
	t.Helper()
	for _, station := range []string{"ISK", "AQU"} {
		db.ClearCache()
		res, err := db.Query(dayScan(station, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ChunksLoaded != 1 {
			t.Fatalf("%s: %+v", station, res.Stats)
		}
	}
}

// TestCollectedResultOutlivesEviction: a collected result owns its
// rows. They do not alias chunk memory, although stage two passed the
// chunk's columns through; they stay bitwise intact after their chunk
// is evicted and two later loads have reused arenas; and the chunk's
// arena is free for reuse as soon as it is evicted, with the result
// never released. The DMd fetcher's series, collected the same way,
// survives the churn too.
func TestCollectedResultOutlivesEviction(t *testing.T) {
	dir := genRepo(t, 1)
	open := func(t *testing.T) *DB {
		db, err := Open(dir, Config{Approach: registrar.Lazy})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	t.Run("never released", func(t *testing.T) {
		db := open(t)
		res, err := db.Query(dayScan("FIAM", 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ChunksLoaded != 1 || res.Rows() == 0 {
			t.Fatalf("stats %+v, %d rows", res.Stats, res.Rows())
		}
		if aliases(t, db, storage.Float64s(res.Rel.Batches()[0].Cols[1])) {
			t.Fatal("the result aliases chunk memory")
		}
		want := digest(res.Rel).String()
		free := db.ChunkStats().FreeArenas
		db.ClearCache()
		if got := db.ChunkStats().FreeArenas; got != free+1 {
			t.Fatalf("evicted chunk's arena not free: %d free, was %d", got, free)
		}
		churn(t, db)
		if got := digest(res.Rel).String(); got != want {
			t.Fatal("a collected result changed after its chunk's eviction")
		}
	})
	t.Run("fetchSeries copy", func(t *testing.T) {
		db := open(t)
		// One whole segment of FIAM's chunk: a single-batch result.
		file, err := db.Query(`SELECT file_id FROM F WHERE station = 'FIAM'`)
		if err != nil {
			t.Fatal(err)
		}
		fileID := storage.Int64s(file.Rel.Flatten().Cols[0])[0]
		seg, err := db.Query(fmt.Sprintf(`SELECT start_time, end_time FROM S
			WHERE file_id = %d ORDER BY start_time LIMIT 1`, fileID))
		if err != nil {
			t.Fatal(err)
		}
		flat := seg.Rel.Flatten()
		from, to := storage.Int64s(flat.Cols[0])[0], storage.Int64s(flat.Cols[1])[0]
		rows, _, err := (*windowFetcher)(db).FetchSeries(context.Background(), "FIAM", "HHZ", from, to)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() == 0 {
			t.Fatal("no window: nothing to test")
		}
		requireReleased(t, db)
		hash := func() string {
			var d rowDigest
			d.Push(rows)
			return d.String()
		}
		want := hash()
		churn(t, db)
		if got := hash(); got != want {
			t.Fatalf("derived windows changed after their chunk's eviction: %s, were %s", got, want)
		}
	})
}

// TestQueryReturnsItsHandles: chunk handles and governor bytes are the
// query's, not the result's. Right after Query returns, with its
// collected result still live and unread, no chunk handle is held and
// no governor byte is reserved.
func TestQueryReturnsItsHandles(t *testing.T) {
	dir := genRepo(t, 1)
	db, err := Open(dir, Config{Approach: registrar.Lazy, GlobalMemoryBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query(dayScan("FIAM", 0))
	if err != nil {
		t.Fatal(err)
	}
	if h, b := db.ChunkStats().Handles, db.Governor().InUse(); h != 0 || b != 0 {
		t.Fatalf("%d chunk handles and %d governor bytes held after Query returned", h, b)
	}
	if res.Stats.ChunksLoaded != 1 || res.Rows() == 0 {
		t.Fatalf("stats %+v, %d rows", res.Stats, res.Rows())
	}
}

// TestChunkChargeMatchesBacking: on both load paths — archive fetch and
// disk-tier promote — what the recycler charges for a resident chunk is
// its real backing, the capacity of its column slices and run arrays,
// within 1 %. Otherwise -cache-bytes bounds a fiction.
func TestChunkChargeMatchesBacking(t *testing.T) {
	dir := genRepo(t, 1)
	db, err := openChecked(t, dir, Config{Approach: registrar.Lazy, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	backing := func(rel *storage.Relation) int64 {
		var n int64
		for _, b := range rel.Batches() {
			for _, c := range b.Cols {
				if vals, ends, ok := storage.Runs(c); ok {
					n += int64(cap(vals))*8 + int64(cap(ends))*4
				} else if c.Kind() == storage.KindFloat64 {
					n += int64(cap(storage.Float64s(c))) * 8
				} else {
					n += int64(cap(storage.Int64s(c))) * 8
				}
			}
		}
		return n
	}
	check := func(path string, station string, promoted int) {
		db.ClearCache()
		db.waitDiskIdle()
		res, err := db.Query(dayScan(station, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ChunksLoaded != 1 || res.Stats.ChunksPromoted != promoted {
			t.Fatalf("%s %s: %+v", path, station, res.Stats)
		}
		ids := db.chunks.IDs()
		if len(ids) != 1 {
			t.Fatalf("resident %v", ids)
		}
		h, _ := db.chunks.TryAcquire(ids[0], nil)
		defer h.Release()
		charged, backed := db.CacheStats().BytesUsed, backing(h.Rel())
		if d := charged - backed; d*100 > charged || -d*100 > charged {
			t.Fatalf("%s %s: charged %d B for %d B of backing", path, station, charged, backed)
		}
	}
	for _, station := range []string{"FIAM", "ISK"} {
		check("archive", station, 0)
	}
	for _, station := range []string{"FIAM", "ISK"} {
		check("promote", station, 1)
	}
}

// TestChunkMemoryStress: concurrent queries over a three-chunk recycler
// on a disk tier — every load evicts, spills or promotes, every arena is
// reused — hold their collected results for a random while, and every
// result must match a serial RAM-only reference, rows in order, both
// when it arrives and at the end of that while. Run with -race.
func TestChunkMemoryStress(t *testing.T) {
	dir := genRepo(t, 2)
	queries := stressQueries()
	for _, station := range []string{"FIAM", "ISK", "AQU", "CERA"} {
		for day := 0; day < 2; day++ {
			queries = append(queries, dayScan(station, day))
		}
	}
	ref := open(t, dir, registrar.Lazy)
	if err := addMetadataView(ref); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, sql := range queries {
		res, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digest(res.Rel).String()
	}
	st := ref.CacheStats()
	db, err := openChecked(t, dir, Config{
		Approach:   registrar.Lazy,
		CacheBytes: st.BytesUsed / int64(st.Chunks) * 3,
		CacheDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := addMetadataView(db); err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 6, 3
	var wg, held sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				for _, qi := range rng.Perm(len(queries)) {
					res, err := db.Query(queries[qi])
					if err != nil {
						t.Error(err)
						return
					}
					if got := digest(res.Rel).String(); got != want[qi] {
						t.Errorf("query %d diverges on arrival", qi)
					}
					held.Add(1)
					time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, func() {
						defer held.Done()
						if got := digest(res.Rel).String(); got != want[qi] {
							t.Errorf("query %d diverged while held", qi)
						}
					})
				}
			}
		}(g)
	}
	wg.Wait()
	held.Wait()
	if s := db.DiskCacheStats(); s.Spills == 0 || s.Promotes == 0 {
		t.Fatalf("disk tier idle: %+v", s)
	}
	if cs := db.ChunkStats(); cs.Pinned != 0 || cs.ArenasReused == 0 {
		t.Fatalf("chunk stats = %+v", cs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
