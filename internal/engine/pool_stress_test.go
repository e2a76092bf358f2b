package engine

import (
	"sync"
	"testing"

	"sommelier/internal/registrar"
	"sommelier/internal/storage"
)

// poolStressQueries covers every pooled producer: the predicated scan's
// selection views and the coalescing drain (single-table projection),
// the join probe gather (plain projection over the data view), and the
// pooled group-by accumulators — without LIMIT, whose early stop
// legitimately strands in-flight pooled batches.
func poolStressQueries() []string {
	return []string{
		// Scan → filter → project over derived metadata.
		`SELECT window_start_ts, window_max_val FROM H
		   WHERE window_station = 'FIAM'
		     AND window_start_ts >= '2010-01-01T00:00:00.000'
		     AND window_start_ts < '2010-01-02T00:00:00.000'`,
		// Join probe gather: plain projection over the two-stage view.
		`SELECT D.sample_time, D.sample_value FROM dataview
		   WHERE F.station = 'FIAM'
		     AND D.sample_time < '2010-01-01T06:00:00.000'`,
		// Pooled group-by accumulators over the parallel drain.
		`SELECT F.station, AVG(D.sample_value), STDDEV(D.sample_value) FROM dataview
		   WHERE D.sample_time < '2010-01-02T00:00:00.000'
		   GROUP BY F.station ORDER BY F.station`,
		// Global aggregate (composite accumulator path).
		`SELECT COUNT(*) AS n, SUM(D.sample_value) FROM dataview WHERE F.station = 'ISK'`,
	}
}

// TestPooledOwnershipStress is the -race ownership test of the batch
// memory pools: concurrent queries over a deliberately tiny recycler
// (every round evicts and re-ingests chunks under load) with parallel
// drains, each result compared to the serial baseline and released.
// After the storm, the pool's outstanding gauge is back at its
// baseline: every pooled column and batch header of every query found
// its way home exactly once.
func TestPooledOwnershipStress(t *testing.T) {
	dir := genRepo(t, 2)
	db, err := Open(dir, Config{
		Approach:    registrar.Lazy,
		MaxParallel: 3,
		CacheBytes:  64 << 10, // a few chunks: admission evicts constantly
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := poolStressQueries()

	// Serial baseline: also triggers every derived-metadata derivation
	// and first-touch ingestion, so the stress rounds measure only the
	// steady-state query lifecycle.
	want := make([]string, len(queries))
	for i, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		want[i] = renderRows(res)
		res.Release()
	}

	const (
		workers = 6
		rounds  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (w + r) % len(queries)
				res, err := db.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				got := renderRows(res)
				res.Release()
				if got != want[qi] {
					t.Errorf("worker %d round %d query %d diverges from serial baseline", w, r, qi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress query: %v", err)
	}
	storage.RequireNoLeaks(t)
}

// TestPoolingResultPreserving is the pooled/unpooled differential at
// the engine level: with batch/column pooling disabled globally, every
// query of the optimizer-differential suite returns exactly the rows
// the pooled execution returns, across all five loading approaches.
func TestPoolingResultPreserving(t *testing.T) {
	dir := genRepo(t, 1)
	queries := optDiffQueries()
	approaches := []registrar.Approach{
		registrar.Lazy, registrar.EagerCSV, registrar.EagerPlain,
		registrar.EagerIndex, registrar.EagerDMd,
	}
	for _, app := range approaches {
		ref := runQuerySuite(t, dir, app, "none", queries)
		storage.SetPooling(false)
		got := runQuerySuite(t, dir, app, "none", queries)
		storage.SetPooling(true)
		for qi := range queries {
			if got[qi] != ref[qi] {
				t.Errorf("%s, pooling off, query %d diverges:\ngot:\n%s\nwant:\n%s",
					app, qi, got[qi], ref[qi])
			}
		}
	}
}
