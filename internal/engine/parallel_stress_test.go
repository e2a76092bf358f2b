package engine

import (
	"context"
	"sync"
	"testing"

	"sommelier/internal/registrar"
)

// TestParallelQueriesAllApproachesRace fires the mixed workload from
// several goroutines against one DB per loading approach, its chunk
// ingestion fanned out 3 wide — bypassing the adaptive split, so loads
// overlap even while many queries are in flight. Every answer must
// match a baseline answered one query at a time with serial loads.
// Run with -race to verify concurrent queries sharing chunk loads, the
// chunk store and the recycler's lock-free hit path together.
func TestParallelQueriesAllApproachesRace(t *testing.T) {
	const goroutines, rounds = 6, 2
	dir := genRepo(t, 2)
	queries := stressQueries()

	for _, app := range registrar.Approaches() {
		app := app
		t.Run(string(app), func(t *testing.T) {
			serial, err := Open(dir, Config{Approach: app, MaxParallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := addMetadataView(serial); err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(queries))
			for i, sql := range queries {
				res, err := serial.Query(sql)
				if err != nil {
					t.Fatalf("serial query %d: %v", i, err)
				}
				want[i] = sortedRows(res)
				res.Release()
			}

			db, err := Open(dir, Config{Approach: app, MaxParallel: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := addMetadataView(db); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for off := range queries {
							i := (g + off) % len(queries)
							res, err := db.QueryContext(context.Background(), queries[i])
							if err != nil {
								t.Errorf("goroutine %d query %d: %v", g, i, err)
								return
							}
							got := sortedRows(res)
							res.Release()
							if got != want[i] {
								t.Errorf("goroutine %d query %d diverged from the baseline:\n%s\nvs\n%s", g, i, got, want[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
