// Derived metadata: the paper's Query 2 end-to-end. Hourly summary
// windows (max, min, mean, stddev) are a partially materialized view;
// Algorithm 1 derives exactly the windows each query needs, reusing
// whatever earlier queries already materialized.
package main

import (
	"fmt"
	"log"
	"os"

	"sommelier"
)

func main() {
	dir, err := os.MkdirTemp("", "sommelier-dmd-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := sommelier.DefaultRepoConfig(4)
	cfg.SamplesPerFile = 6000
	cfg.EventRate = 0.9 // lots of seismic events to hunt
	if err := sommelier.GenerateRepository(dir, cfg); err != nil {
		log.Fatal(err)
	}
	db, err := sommelier.Open(dir, sommelier.Config{Approach: sommelier.Lazy})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Query 2: waveform data of hours where volatility is
	// high at high amplitude — a T5 query filtering on derived
	// metadata. No DMd exists yet, so Algorithm 1 computes the three
	// requested windows (and only those) before the query runs.
	q2 := `
		SELECT D.sample_time, D.sample_value FROM windowdataview
		WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		  AND H.window_start_ts >= '2010-01-01T23:00:00.000'
		  AND H.window_start_ts < '2010-01-02T02:00:00.000'
		  AND H.window_max_val > 10000
		  AND H.window_std_dev > 10
		LIMIT 5`
	res, err := db.Query(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first run : requested %d windows, derived %d (%v), %d rows\n",
		res.DMd.Requested, res.DMd.Computed, res.DMd.Derivation.Round(1000), res.Rows())
	fmt.Print(sommelier.FormatResult(res))

	// A wider overlapping hunt: the three windows above are covered
	// (PSm); only the new ones are derived (PSu).
	q2wide := `
		SELECT D.sample_time, D.sample_value FROM windowdataview
		WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		  AND H.window_start_ts >= '2010-01-01T23:00:00.000'
		  AND H.window_start_ts < '2010-01-02T08:00:00.000'
		  AND H.window_max_val > 10000
		  AND H.window_std_dev > 10
		LIMIT 5`
	res2, err := db.Query(q2wide)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second run: requested %d windows, covered %d, derived only %d\n",
		res2.DMd.Requested, res2.DMd.Covered, res2.DMd.Computed)

	// Inspect the materialized view directly (a T2 query).
	res3, err := db.Query(`
		SELECT window_start_ts, window_max_val, window_std_dev FROM H
		WHERE window_station = 'FIAM'
		  AND window_start_ts >= '2010-01-01T23:00:00.000'
		  AND window_start_ts < '2010-01-02T04:00:00.000'
		ORDER BY window_start_ts`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("materialized hourly windows:")
	fmt.Print(sommelier.FormatResult(res3))
	fmt.Printf("windows materialized in total: %d\n", db.MaterializedWindows())
}
