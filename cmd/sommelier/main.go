// Command sommelier is the interactive front door of the system:
// generate a synthetic seismic chunk repository, register it under any
// of the five loading approaches, and run SQL against it.
//
// Usage:
//
//	sommelier gen -dir repo -days 8 -samples 4000
//	sommelier query -dir repo -approach lazy -sql "SELECT ..."
//	sommelier explain -dir repo -sql "SELECT ..."
//	sommelier report -dir repo -approach eager_index
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sommelier"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sommelier:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sommelier gen     -dir DIR [-days N] [-samples N] [-seed N]
  sommelier query   -dir DIR [-approach A] -sql SQL   (EXPLAIN [ANALYZE] SELECT ... prints the plan)
  sommelier explain -dir DIR -sql SQL
  sommelier report  -dir DIR [-approach A]
approaches: lazy (default), eager_csv, eager_plain, eager_index, eager_dmd`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir := fs.String("dir", "", "output directory")
	days := fs.Int("days", 8, "days of data per station")
	samples := fs.Int("samples", 4000, "samples per chunk file")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("gen: -dir is required")
	}
	cfg := sommelier.DefaultRepoConfig(*days)
	cfg.SamplesPerFile = *samples
	cfg.Seed = *seed
	t0 := time.Now()
	if err := sommelier.GenerateRepository(*dir, cfg); err != nil {
		return err
	}
	fmt.Printf("generated repository under %s in %v\n", *dir, time.Since(t0).Round(time.Millisecond))
	return nil
}

func openFlags(fs *flag.FlagSet) (dir *string, approach *string) {
	dir = fs.String("dir", "", "repository directory")
	approach = fs.String("approach", "lazy", "loading approach")
	return
}

func openDB(dir, approach string) (*sommelier.DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	t0 := time.Now()
	db, err := sommelier.Open(dir, sommelier.Config{Approach: sommelier.Approach(approach)})
	if err != nil {
		return nil, err
	}
	fmt.Printf("-- prepared (%s) in %v\n", approach, time.Since(t0).Round(time.Microsecond))
	return db, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir, approach := openFlags(fs)
	sql := fs.String("sql", "", "SQL statement")
	fs.Parse(args)
	if *sql == "" {
		return fmt.Errorf("query: -sql is required")
	}
	db, err := openDB(*dir, *approach)
	if err != nil {
		return err
	}
	res, err := db.Query(*sql)
	if err != nil {
		return err
	}
	fmt.Print(sommelier.FormatResult(res))
	st := res.Stats
	fmt.Printf("-- T%d  stage1=%v load=%v stage2=%v  chunks: %d selected, %d loaded, %d cached\n",
		res.QueryType, st.Stage1.Round(time.Microsecond), st.Load.Round(time.Microsecond),
		st.Stage2.Round(time.Microsecond), st.ChunksSelected, st.ChunksLoaded, st.CacheHits)
	if res.DMd.Requested > 0 {
		fmt.Printf("-- DMd: %d windows requested, %d covered, %d derived in %v\n",
			res.DMd.Requested, res.DMd.Covered, res.DMd.Computed, res.DMd.Derivation.Round(time.Microsecond))
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dir, approach := openFlags(fs)
	sql := fs.String("sql", "", "SQL statement")
	fs.Parse(args)
	if *sql == "" {
		return fmt.Errorf("explain: -sql is required")
	}
	db, err := openDB(*dir, *approach)
	if err != nil {
		return err
	}
	res, err := db.Query("EXPLAIN " + *sql)
	if err != nil {
		return err
	}
	fmt.Print(sommelier.FormatResult(res))
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir, approach := openFlags(fs)
	fs.Parse(args)
	db, err := openDB(*dir, *approach)
	if err != nil {
		return err
	}
	rep := db.Report()
	fmt.Printf("approach:       %s\n", rep.Approach)
	fmt.Printf("files:          %d\n", rep.Files)
	fmt.Printf("segments:       %d\n", rep.Segments)
	fmt.Printf("rows loaded:    %d\n", rep.Rows)
	fmt.Printf("metadata time:  %v\n", rep.MetadataTime.Round(time.Microsecond))
	fmt.Printf("mSEED→CSV:      %v\n", rep.Breakdown.MseedToCSV.Round(time.Microsecond))
	fmt.Printf("CSV→DB:         %v\n", rep.Breakdown.CSVToDB.Round(time.Microsecond))
	fmt.Printf("mSEED→DB:       %v\n", rep.Breakdown.MseedToDB.Round(time.Microsecond))
	fmt.Printf("indexing:       %v\n", rep.Breakdown.Indexing.Round(time.Microsecond))
	fmt.Printf("DMd derivation: %v\n", rep.Breakdown.DMdDerivation.Round(time.Microsecond))
	fmt.Printf("total:          %v\n", rep.TotalTime().Round(time.Microsecond))
	fmt.Printf("repo bytes:     %d\n", rep.MseedBytes)
	fmt.Printf("metadata bytes: %d\n", rep.MetadataBytes)
	fmt.Printf("data bytes:     %d\n", rep.DataBytes)
	fmt.Printf("index bytes:    %d\n", rep.IndexBytes)
	return nil
}
