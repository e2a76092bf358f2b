package engine

import (
	"strings"
	"testing"

	"sommelier/internal/opt"
	"sommelier/internal/registrar"
)

// optDiffQueries spans the taxonomy (T1/T2/T4/T5) plus projection
// arithmetic, grouping, ordering and a parenthesized disjunction, so
// every optimizer rule has something to rewrite.
func optDiffQueries() []string {
	return []string{
		`SELECT station, COUNT(*) AS n FROM F WHERE station = 'FIAM' GROUP BY station`,
		`SELECT window_start_ts, window_max_val FROM H
		   WHERE window_station = 'FIAM'
		     AND window_start_ts >= '2010-01-01T00:00:00.000'
		     AND window_start_ts < '2010-01-02T00:00:00.000'
		   ORDER BY window_start_ts`,
		`SELECT AVG(D.sample_value), COUNT(*) AS n FROM dataview
		   WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		     AND D.sample_time >= '2010-01-01T00:00:00.000'
		     AND D.sample_time < '2010-01-02T00:00:00.000'`,
		`SELECT COUNT(*) AS n, MIN(D.sample_value), MAX(D.sample_value) FROM windowdataview
		   WHERE F.station = 'FIAM'
		     AND H.window_start_ts >= '2010-01-01T00:00:00.000'
		     AND H.window_start_ts < '2010-01-02T00:00:00.000'
		     AND H.window_std_dev >= 0`,
		`SELECT D.sample_time, D.sample_value * 2 + 1 AS v FROM dataview
		   WHERE F.station = 'ISK' AND (F.channel = 'HHZ' OR F.channel = 'BHE')
		     AND D.sample_time < '2010-01-01T06:00:00.000'
		   ORDER BY D.sample_time DESC LIMIT 7`,
		`SELECT COUNT(*) AS n FROM F WHERE 1 + 1 = 2 AND station = 'ISK'`,
		// Single-table computed projection over a filtered scan.
		`SELECT window_max_val * 2 + 1 AS v, window_start_ts FROM H
		   WHERE window_station = 'AQU' AND window_std_dev >= 0`,
		`SELECT window_start_ts, window_max_val - window_min_val AS spread, window_std_dev FROM H
		   WHERE window_station = 'ISK' AND window_max_val > window_min_val
		   ORDER BY window_start_ts`,
	}
}

// TestOptimizerRulesResultPreserving is the acceptance property of the
// rule pipeline: with any single rule disabled — and with all of them
// disabled — every query returns exactly the rows the fully optimized
// plan returns, across all five loading approaches. Each configuration
// runs on a fresh database so derived-metadata state accumulates
// identically.
func TestOptimizerRulesResultPreserving(t *testing.T) {
	dir := genRepo(t, 1)
	queries := optDiffQueries()
	approaches := []registrar.Approach{
		registrar.Lazy, registrar.EagerCSV, registrar.EagerPlain,
		registrar.EagerIndex, registrar.EagerDMd,
	}
	configs := append([]string{"all"}, opt.Rules()...)
	for _, app := range approaches {
		ref := runQuerySuite(t, dir, app, "none", queries)
		for _, disabled := range configs {
			got := runQuerySuite(t, dir, app, disabled, queries)
			for qi := range queries {
				if got[qi] != ref[qi] {
					t.Errorf("%s, rule %q disabled, query %d diverges:\ngot:\n%s\nwant:\n%s",
						app, disabled, qi, got[qi], ref[qi])
				}
			}
		}
	}
}

func runQuerySuite(t *testing.T, dir string, app registrar.Approach, optDisable string, queries []string) []string {
	t.Helper()
	db, err := Open(dir, Config{Approach: app, OptDisable: optDisable})
	if err != nil {
		t.Fatalf("open %s (disable %s): %v", app, optDisable, err)
	}
	out := make([]string, 0, len(queries))
	for qi, sql := range queries {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s (disable %s) query %d: %v", app, optDisable, qi, err)
		}
		out = append(out, renderRows(res))
		res.Release()
	}
	return out
}

// pruneBag is every query list the engine suites keep, plus the shapes
// join-output pruning treats specially: a grouped COUNT(*) (nothing read
// from the join but the group column), a bare COUNT(*) (the join keeps
// one probe column for the row count), build-side-only and mixed
// projections, ORDER BY + LIMIT over a join, and a row export.
func pruneBag() []string {
	bag := append(append(optDiffQueries(), stressQueries()...), chaosBag()...)
	return append(bag,
		`SELECT F.station, AVG(D.sample_value), STDDEV(D.sample_value), COUNT(*) FROM dataview
		   WHERE D.sample_time < '2010-01-02T00:00:00.000' GROUP BY F.station ORDER BY F.station`,
		`SELECT F.station, COUNT(*) FROM dataview GROUP BY F.station ORDER BY F.station`,
		`SELECT COUNT(*) FROM dataview WHERE D.sample_time >= '2010-01-01T12:00:00.000'`,
		`SELECT F.station, F.channel FROM dataview
		   WHERE D.sample_value > 0 AND D.sample_time < '2010-01-01T00:30:00.000'`,
		`SELECT S.segment_id, F.station, D.sample_value / 2 FROM dataview
		   WHERE F.station = 'AQU' AND D.sample_time < '2010-01-01T03:00:00.000'`,
		`SELECT D.sample_value FROM dataview WHERE F.station = 'FIAM'
		   ORDER BY D.sample_value DESC LIMIT 10`,
		`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = 'CERA'`,
		`SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md
		   WHERE F.station = 'FIAM' AND H.window_start_ts < '2010-01-01T12:00:00.000'`,
	)
}

// TestPruneColsBitwise holds the whole bag bit for bit — floats at full
// precision, rows in order — between plans whose joins emit only what
// their parents read and plans whose joins emit every column, on all
// five loading approaches; and checks the rule is what flips it.
func TestPruneColsBitwise(t *testing.T) {
	dir := genRepo(t, 2)
	run := func(app registrar.Approach, disable string) ([]string, string) {
		db, err := openChecked(t, dir, Config{Approach: app, OptDisable: disable})
		if err != nil {
			t.Fatalf("open %s (disable %s): %v", app, disable, err)
		}
		defer db.Close()
		if err := addMetadataView(db); err != nil {
			t.Fatal(err)
		}
		var out []string
		for qi, sql := range pruneBag() {
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s (disable %s) query %d: %v", app, disable, qi, err)
			}
			out = append(out, renderBits(res))
			res.Release()
		}
		res, err := db.Query("EXPLAIN " + tQueries()[4])
		if err != nil {
			t.Fatal(err)
		}
		return out, planText(res)
	}
	for _, app := range []registrar.Approach{
		registrar.Lazy, registrar.EagerCSV, registrar.EagerPlain,
		registrar.EagerIndex, registrar.EagerDMd,
	} {
		on, planOn := run(app, "none")
		off, planOff := run(app, opt.RulePruneCols)
		for qi := range on {
			if on[qi] != off[qi] {
				t.Errorf("%s query %d diverges with prunecols off:\ngot:\n%s\nwant:\n%s", app, qi, off[qi], on[qi])
			}
		}
		if !strings.Contains(planOn, " out=") || strings.Contains(planOff, " out=") {
			t.Errorf("%s: join output pruning should follow the prunecols rule:\non:\n%s\noff:\n%s", app, planOn, planOff)
		}
	}
}
