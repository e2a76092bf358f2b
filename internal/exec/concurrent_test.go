package exec

import (
	"context"
	"sync"
	"testing"
	"time"

	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

// sumISK is the expected SUM(D.sample_value) of the ISK station over a
// setupCatalog(t, nFiles) repository: chunks are the even IDs, chunk c
// holds values 100c .. 100c+9.
func sumISK(nFiles int) float64 {
	want := 0.0
	for c := int64(0); c < int64(nFiles); c += 2 {
		for i := int64(0); i < 10; i++ {
			want += float64(c*100 + i)
		}
	}
	return want
}

// runConcurrent fires n goroutines each executing a fresh plan of the
// same query against env, collecting results and stats.
func runConcurrent(t *testing.T, env *Env, q *plan.Query, n int) []Stats {
	t.Helper()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats []Stats
	)
	cat := env.Catalog
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := compile(cat, q)
			if err != nil {
				errs <- err
				return
			}
			res, err := Execute(context.Background(), env, p, Options{})
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			stats = append(stats, res.Stats)
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return stats
}

// TestConcurrentQueriesLoadEachChunkOnce is the singleflight contract:
// however many queries select the same missing chunks at once, each
// chunk is loaded exactly once and ChunksLoaded/RowsLoaded sum to the
// true ingestion volume across all of them.
func TestConcurrentQueriesLoadEachChunkOnce(t *testing.T) {
	const nFiles, nQueries = 8, 6
	cat, loader := setupCatalog(t, nFiles)
	loader.delay = 2 * time.Millisecond // widen the overlap window
	env := lazyEnv(cat, loader, 1<<30)

	stats := runConcurrent(t, env, t4Query("ISK"), nQueries)

	nChunks := nFiles / 2 // ISK owns the even chunks
	if got := loader.loadCount(); got != nChunks {
		t.Fatalf("loader called %d times, want %d (one per chunk)", got, nChunks)
	}
	var loaded, rows, hits int
	for _, st := range stats {
		if st.ChunksSelected != nChunks {
			t.Fatalf("ChunksSelected = %d, want %d", st.ChunksSelected, nChunks)
		}
		loaded += st.ChunksLoaded
		rows += int(st.RowsLoaded)
		hits += st.CacheHits
	}
	if loaded != nChunks {
		t.Fatalf("sum ChunksLoaded = %d, want exactly %d across %d queries", loaded, nChunks, nQueries)
	}
	if rows != nChunks*10 {
		t.Fatalf("sum RowsLoaded = %d, want %d", rows, nChunks*10)
	}
	// Every selected chunk was either the one load or a (shared) hit.
	if loaded+hits != nQueries*nChunks {
		t.Fatalf("loaded+hits = %d, want %d", loaded+hits, nQueries*nChunks)
	}
}

// TestConcurrentTransientQueriesAgree runs uncached (recycler-less)
// concurrent queries: loads are shared in flight, every query gets the
// right answer, and reference-counted release leaves nothing resident.
func TestConcurrentTransientQueriesAgree(t *testing.T) {
	const nFiles, nQueries = 10, 8
	cat, loader := setupCatalog(t, nFiles)
	loader.delay = time.Millisecond
	env := lazyEnv(cat, loader, 0)
	want := sumISK(nFiles)

	var wg sync.WaitGroup
	errs := make(chan error, nQueries)
	for g := 0; g < nQueries; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := compile(cat, t4Query("ISK"))
			if err != nil {
				errs <- err
				return
			}
			res, err := Execute(context.Background(), env, p, Options{})
			if err != nil {
				errs <- err
				return
			}
			if got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]; got != want {
				t.Errorf("sum = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d, _ := cat.Table(seismic.TableD)
	if d.Rows() != 0 {
		t.Fatalf("transient chunks left resident after all queries: %d rows", d.Rows())
	}
}

// TestConcurrentQueriesUnderEvictionChurn hammers a recycler that holds
// only two chunks with concurrent five-chunk queries: admissions evict
// chunks other queries are scanning, which their handles must make
// harmless. Every query must still see the exact serial answer.
func TestConcurrentQueriesUnderEvictionChurn(t *testing.T) {
	const nFiles, nQueries, rounds = 10, 4, 5
	cat, loader := setupCatalog(t, nFiles)
	d, _ := cat.Table(seismic.TableD)
	var chunkSize int64
	{
		rel, _, _ := loader.LoadChunkInto(context.Background(), seismic.TableD, 0, nil, nil)
		chunkSize = rel.MemSize()
		loader.mu.Lock()
		loader.loads = nil
		loader.mu.Unlock()
	}
	env := lazyEnv(cat, loader, chunkSize*2+1)
	want := sumISK(nFiles)

	var wg sync.WaitGroup
	for g := 0; g < nQueries; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p, err := compile(cat, t4Query("ISK"))
				if err != nil {
					t.Error(err)
					return
				}
				res, err := Execute(context.Background(), env, p, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				got := storage.Float64s(res.Rel.Flatten().Cols[0])[0]
				if got != want {
					t.Errorf("sum = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles — every query returned — no chunk may stay
	// pinned and the cache may hold at most its two-chunk capacity.
	if st := d.Chunks().Stats(); st.Pinned != 0 {
		t.Fatalf("chunks still pinned: %+v", st)
	}
	if st := d.Chunks().CacheStats(); st.BytesUsed > chunkSize*2+1 {
		t.Fatalf("recycler over capacity: %d bytes", st.BytesUsed)
	}
}
