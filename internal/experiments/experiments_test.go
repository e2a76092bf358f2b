package experiments

import (
	"strings"
	"testing"

	"sommelier/internal/registrar"
)

func tiny(t *testing.T) Config {
	t.Helper()
	return TinyConfig(t.TempDir())
}

// shape returns a configuration with enough per-chunk volume that the
// metadata/actual-data cost asymmetry is visible (the tiny config's
// 300-sample files are dominated by per-file constant costs).
func shape(t *testing.T) Config {
	t.Helper()
	cfg := TinyConfig(t.TempDir())
	cfg.ScaleFactors = []int{1}
	cfg.SamplesPerFile = 30000
	return cfg
}

func TestTableII(t *testing.T) {
	cfg := tiny(t)
	rows, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The 1:3 scale shape must hold exactly for files.
	if rows[1].Files != 3*rows[0].Files {
		t.Fatalf("files: %d vs %d", rows[0].Files, rows[1].Files)
	}
	if rows[1].DataRecords != 3*rows[0].DataRecords {
		t.Fatalf("records: %d vs %d", rows[0].DataRecords, rows[1].DataRecords)
	}
	if rows[0].Segments <= rows[0].Files {
		t.Fatal("multiple segments per file expected")
	}
	out := RenderTableII(rows)
	if !strings.Contains(out, "sf-1") || !strings.Contains(out, "sf-3") {
		t.Fatalf("render:\n%s", out)
	}
	// Repo reuse: a second call regenerates the manifest consistently.
	rows2, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0] != rows[0] {
		t.Fatalf("manifest not reproducible: %+v vs %+v", rows2[0], rows[0])
	}
}

func TestTableIIIShapes(t *testing.T) {
	cfg := tiny(t)
	cfg.ScaleFactors = []int{1}
	rows, err := TableIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The paper's Table III shape: CSV ≫ DB ≫ mSEED ≫ lazy metadata.
	if !(r.CSVBytes > r.DBBytes/2) {
		t.Fatalf("CSV %d not large vs DB %d", r.CSVBytes, r.DBBytes)
	}
	if !(r.DBBytes > r.MseedBytes) {
		t.Fatalf("DB %d not larger than mSEED %d (decompression blow-up missing)", r.DBBytes, r.MseedBytes)
	}
	if !(r.LazyBytes < r.MseedBytes) {
		t.Fatalf("lazy %d not small vs mSEED %d", r.LazyBytes, r.MseedBytes)
	}
	if r.DBKeysBytes <= r.DBBytes-r.CSVBytes && r.DBKeysBytes == 0 {
		t.Fatal("indexed size missing")
	}
	_ = RenderTableIII(rows)
}

func TestFig6Shapes(t *testing.T) {
	cfg := shape(t)
	rows, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[registrar.Approach]LoadingRow{}
	for _, r := range rows {
		byApp[r.Approach] = r
	}
	lazy := byApp[registrar.Lazy].Total
	for _, app := range []registrar.Approach{registrar.EagerCSV, registrar.EagerPlain, registrar.EagerIndex, registrar.EagerDMd} {
		if byApp[app].Total <= lazy {
			t.Errorf("%s total %v not above lazy %v", app, byApp[app].Total, lazy)
		}
	}
	// eager_csv pays the serialization detour that eager_plain avoids.
	if byApp[registrar.EagerCSV].MseedToCSV <= 0 || byApp[registrar.EagerCSV].CSVToDB <= 0 {
		t.Fatal("eager_csv cost components missing")
	}
	if byApp[registrar.EagerPlain].MseedToCSV != 0 {
		t.Fatal("eager_plain should not serialize CSV")
	}
	if byApp[registrar.EagerIndex].Indexing <= 0 {
		t.Fatal("eager_index indexing cost missing")
	}
	if byApp[registrar.EagerDMd].DMdDerivation <= 0 {
		t.Fatal("eager_dmd derivation cost missing")
	}
	_ = RenderFig6(rows)
}

func TestFig7Runs(t *testing.T) {
	cfg := tiny(t)
	cfg.ScaleFactors = []int{1}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 query types × 4 approaches.
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cold <= 0 || r.Hot <= 0 {
			t.Fatalf("timings missing: %+v", r)
		}
		if r.Hot > r.Cold*100 {
			t.Fatalf("hot wildly slower than cold: %+v", r)
		}
	}
	_ = RenderFig7(rows)
}

func TestFig8Shapes(t *testing.T) {
	cfg := shape(t)
	cfg.Selectivities = []int{0, 100}
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sf × 2 query types × 4 approaches × 2 selectivities.
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SelectivityPct == 0 && r.FirstQuery != 0 {
			t.Fatalf("0%% selectivity ran a query: %+v", r)
		}
		if r.SelectivityPct == 100 && r.FirstQuery <= 0 {
			t.Fatalf("100%% selectivity query missing: %+v", r)
		}
	}
	// Lazy preparation must beat every eager preparation.
	prep := map[registrar.Approach]int64{}
	for _, r := range rows {
		if r.SelectivityPct == 0 && r.QueryType == 4 {
			prep[r.Approach] = int64(r.Prep)
		}
	}
	for app, p := range prep {
		if app != registrar.Lazy && p <= prep[registrar.Lazy] {
			t.Errorf("%s prep %d not above lazy %d", app, p, prep[registrar.Lazy])
		}
	}
	_ = RenderFig8(rows)
}

func TestFig9Runs(t *testing.T) {
	cfg := tiny(t)
	cfg.ScaleFactors = []int{1}
	cfg.Selectivities = []int{0, 100}
	cfg.WorkloadSizes = []int{3}
	rows, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 sf × 2 qt × 2 approaches × 2 wsel × 1 n.
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WorkloadSelPct == 100 && r.Workload <= 0 {
			t.Fatalf("workload missing: %+v", r)
		}
	}
	_ = RenderFig9(rows)
}

func TestAblations(t *testing.T) {
	cfg := tiny(t)
	par, err := AblationParallelLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != 2 || par[0].Chunks != par[1].Chunks {
		t.Fatalf("parallel rows = %+v", par)
	}
	pol, err := AblationCachePolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pol) != 2 {
		t.Fatalf("policy rows = %d", len(pol))
	}
	for _, r := range pol {
		if r.Hits+r.Misses == 0 {
			t.Fatalf("no cache traffic: %+v", r)
		}
	}
	rules, err := AblationJoinRules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].WithRules >= rules[0].WithoutRules {
		t.Fatalf("rules do not reduce chunks: %+v", rules[0])
	}
	_ = RenderAblations(par, pol, rules)
}

func TestRangeFor(t *testing.T) {
	lo, hi := rangeFor(0, 1000, 10, 25)
	if lo != 100 || hi != 350 {
		t.Fatalf("range = [%d, %d)", lo, hi)
	}
	_, hi = rangeFor(0, 1000, 90, 25)
	if hi != 1000 {
		t.Fatalf("clamped hi = %d", hi)
	}
}

func TestQueryOfTypePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	queryOfType(9, "FIAM", 0, 1)
}
