// Loading comparison: the paper's headline experiment in miniature.
// The same repository is prepared with all five loading approaches;
// for each we report the preparation cost breakdown (Figure 6), the
// storage footprint (Table III) and the data-to-insight time of a
// first selective query (Figure 8's low-selectivity regime), where
// lazy wins by orders of magnitude.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"sommelier"
)

const firstQuery = `
	SELECT AVG(D.sample_value) FROM dataview
	WHERE F.station = 'AQU'
	  AND D.sample_time >= '2010-01-02T00:00:00.000'
	  AND D.sample_time < '2010-01-04T00:00:00.000'`

func main() {
	dir, err := os.MkdirTemp("", "sommelier-loading-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := sommelier.DefaultRepoConfig(12)
	cfg.SamplesPerFile = 8000
	if err := sommelier.GenerateRepository(dir, cfg); err != nil {
		log.Fatal(err)
	}

	approaches := []sommelier.Approach{
		sommelier.EagerCSV, sommelier.EagerPlain, sommelier.EagerIndex,
		sommelier.EagerDMd, sommelier.Lazy,
	}
	fmt.Printf("%-12s %12s %12s %12s %14s %10s\n",
		"approach", "prep", "first query", "insight", "resident", "answer")
	for _, app := range approaches {
		t0 := time.Now()
		db, err := sommelier.Open(dir, sommelier.Config{Approach: app})
		if err != nil {
			log.Fatal(err)
		}
		prep := time.Since(t0)
		t1 := time.Now()
		res, err := db.Query(firstQuery)
		if err != nil {
			log.Fatal(err)
		}
		q := time.Since(t1)
		rep := db.Report()
		flat := res.Rel.Flatten()
		var answer float64
		if flat.Len() > 0 {
			answer = flat.Cols[0].(interface{ Value(int) float64 }).Value(0)
		}
		fmt.Printf("%-12s %12v %12v %12v %14d %10.2f\n",
			app, prep.Round(time.Microsecond), q.Round(time.Microsecond),
			(prep + q).Round(time.Microsecond), rep.DataBytes, answer)
	}
	fmt.Println("\ninsight = preparation + first query (the paper's data-to-insight time)")
	fmt.Println("lazy prepares in microseconds and ingests only the 2 chunks the query needs;")
	fmt.Println("the eager variants pay for all chunks (plus indexes, plus DMd) up front.")
}
