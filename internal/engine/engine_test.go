package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
	"sommelier/internal/table"
)

// genRepo builds a small deterministic repository shared by the tests.
func genRepo(t testing.TB, days int) string {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(days)
	cfg.SamplesPerFile = 600
	cfg.MeanSegments = 4
	cfg.EventRate = 0.5
	if _, err := seisgen.Generate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	return dir
}

// requireReleased fails t unless db's live chunk handles and governor
// bytes in use both drain to zero: every query has finished. It polls,
// since a cancelled query's workers may still be unwinding when the
// caller sees the error.
func requireReleased(t testing.TB, db *DB) {
	t.Helper()
	var handles, inUse int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		handles, inUse = db.ChunkStats().Handles, 0
		if g := db.Governor(); g != nil {
			inUse = g.InUse()
		}
		if handles == 0 && inUse == 0 || time.Now().After(deadline) {
			break
		}
	}
	if handles != 0 || inUse != 0 {
		t.Errorf("%d chunk handles and %d governor bytes still held", handles, inUse)
	}
}

// openChecked is Open with requireReleased run on the DB when the test
// ends.
func openChecked(t testing.TB, dir string, cfg Config) (*DB, error) {
	t.Helper()
	db, err := Open(dir, cfg)
	if err == nil {
		t.Cleanup(func() { requireReleased(t, db) })
	}
	return db, err
}

func open(t testing.TB, dir string, approach registrar.Approach) *DB {
	t.Helper()
	db, err := Open(dir, Config{Approach: approach})
	if err != nil {
		t.Fatalf("open %s: %v", approach, err)
	}
	return db
}

// The T1–T5 representative queries of the evaluation, over the
// generated repository's stations (FIAM et al., channel HHZ, data
// starting 2010-01-01).
func tQueries() map[int]string {
	return map[int]string{
		1: `SELECT station, COUNT(*) AS n FROM F WHERE station = 'FIAM' GROUP BY station`,
		2: `SELECT window_max_val, window_std_dev FROM H
		    WHERE window_station = 'FIAM'
		      AND window_start_ts >= '2010-01-01T00:00:00.000'
		      AND window_start_ts < '2010-01-02T00:00:00.000'`,
		3: `SELECT H.window_start_ts, H.window_max_val FROM windowdataview_md
		    WHERE F.station = 'FIAM'
		      AND H.window_start_ts >= '2010-01-01T00:00:00.000'
		      AND H.window_start_ts < '2010-01-02T00:00:00.000'`,
		4: `SELECT AVG(D.sample_value) FROM dataview
		    WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		      AND D.sample_time >= '2010-01-01T00:00:00.000'
		      AND D.sample_time < '2010-01-03T00:00:00.000'`,
		5: `SELECT AVG(D.sample_value) FROM windowdataview
		    WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		      AND H.window_start_ts >= '2010-01-01T00:00:00.000'
		      AND H.window_start_ts < '2010-01-03T00:00:00.000'
		      AND H.window_max_val > -1000000000`,
	}
}

func TestOpenUnknownApproach(t *testing.T) {
	dir := genRepo(t, 1)
	if _, err := Open(dir, Config{Approach: "nosuch"}); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

func TestLazyMetadataOnlyInvestment(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	rep := db.Report()
	if rep.Files != 8 { // 4 stations × 2 days
		t.Fatalf("files = %d", rep.Files)
	}
	if rep.Rows != 0 {
		t.Fatal("lazy open ingested actual data")
	}
	if rep.DataBytes != 0 {
		t.Fatalf("data bytes = %d", rep.DataBytes)
	}
	if rep.MetadataBytes <= 0 || rep.MseedBytes <= 0 {
		t.Fatalf("sizes = %+v", rep)
	}
	// The metadata must be orders of magnitude smaller than the
	// repository (Table III's Lazy column).
	if rep.MetadataBytes*2 > rep.MseedBytes {
		t.Fatalf("metadata %d B not small vs repo %d B", rep.MetadataBytes, rep.MseedBytes)
	}
}

func TestQuery1EndToEnd(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query(`
		SELECT AVG(D.sample_value) FROM dataview
		WHERE F.station = 'ISK' AND F.channel = 'BHE'
		  AND D.sample_time > '2010-01-01T01:00:00.000'
		  AND D.sample_time < '2010-01-02T23:00:00.000'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryType != 4 {
		t.Fatalf("type = T%d", res.QueryType)
	}
	if res.Rows() != 1 {
		t.Fatalf("rows = %d", res.Rows())
	}
	// Only ISK's 2 chunks may be touched (4 stations × 2 days = 8).
	if res.Stats.ChunksSelected != 2 {
		t.Fatalf("chunks selected = %d", res.Stats.ChunksSelected)
	}
	v := storage.Float64s(res.Rel.Flatten().Cols[0])[0]
	if math.IsNaN(v) {
		t.Fatal("average is NaN — no data matched")
	}
}

func TestQuery2EndToEndWithDerivation(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	sql := `
		SELECT D.sample_time, D.sample_value FROM windowdataview
		WHERE F.station = 'FIAM' AND F.channel = 'HHZ'
		  AND H.window_start_ts >= '2010-01-01T10:00:00.000'
		  AND H.window_start_ts < '2010-01-01T13:00:00.000'
		  AND H.window_max_val > -1000000000 AND H.window_std_dev >= 0`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryType != 5 {
		t.Fatalf("type = T%d", res.QueryType)
	}
	// Three hourly windows for one station/channel were requested.
	if res.DMd.Requested != 3 || res.DMd.Computed != 3 || res.DMd.Covered != 0 {
		t.Fatalf("dmd stats = %+v", res.DMd)
	}
	// A second, overlapping query must reuse the materialized windows
	// (partial reuse).
	sql2 := strings.Replace(sql, "13:00:00", "15:00:00", 1)
	res2, err := db.Query(sql2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DMd.Requested != 5 || res2.DMd.Covered != 3 || res2.DMd.Computed != 2 {
		t.Fatalf("dmd reuse stats = %+v", res2.DMd)
	}
	if db.MaterializedWindows() != 5 {
		t.Fatalf("materialized = %d", db.MaterializedWindows())
	}
}

// TestDerivationHonoursQueryContext: Algorithm 1 derives windows under
// the context of the query that needs them. A T2 query issued with an
// already-cancelled context on a cold lazy DB fails with an error
// wrapping context.Canceled, derives no window and loads no chunk.
func TestDerivationHonoursQueryContext(t *testing.T) {
	db := open(t, genRepo(t, 1), registrar.Lazy)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, tQueries()[2]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := db.MaterializedWindows(); n != 0 {
		t.Fatalf("%d windows derived under a cancelled context", n)
	}
	if cs := db.ChunkStats(); cs.Resident != 0 || cs.ArenasAllocated+cs.ArenasReused != 0 {
		t.Fatalf("a chunk loaded under a cancelled context: %+v", cs)
	}
	if _, err := db.Query(tQueries()[2]); err != nil || db.MaterializedWindows() == 0 {
		t.Fatalf("the same query under a live context: err %v, %d windows", err, db.MaterializedWindows())
	}
}

// addMetadataView registers a metadata-only view (F ⋈ H) used by the T3
// query; idempotent per database.
func addMetadataView(db *DB) error {
	if _, ok := db.Catalog().View("windowdataview_md"); ok {
		return nil
	}
	return db.Catalog().AddView(&table.View{
		Name:   "windowdataview_md",
		Tables: []string{seismic.TableF, seismic.TableH},
		Joins: []table.JoinPred{
			{Left: "F.station", Right: "H.window_station"},
			{Left: "F.channel", Right: "H.window_channel"},
		},
	})
}

func TestEagerDMdAnswersT2Instantly(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.EagerDMd)
	if db.MaterializedWindows() == 0 {
		t.Fatal("eager_dmd did not materialize windows")
	}
	if db.Report().Breakdown.DMdDerivation <= 0 {
		t.Fatal("no derivation cost recorded")
	}
	res, err := db.Query(tQueries()[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.DMd.Computed != 0 {
		t.Fatalf("T2 on eager_dmd recomputed %d windows", res.DMd.Computed)
	}
	if res.Rows() == 0 {
		t.Fatal("no windows returned")
	}
}

func TestLazyCacheColdHot(t *testing.T) {
	dir := genRepo(t, 2)
	db := open(t, dir, registrar.Lazy)
	sql := tQueries()[4]
	res1, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.ChunksLoaded == 0 {
		t.Fatal("cold run loaded nothing")
	}
	res2, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ChunksLoaded != 0 || res2.Stats.CacheHits == 0 {
		t.Fatalf("hot run stats = %+v", res2.Stats)
	}
	// Cold again after a cache clear (server restart).
	db.ClearCache()
	res3, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.ChunksLoaded == 0 {
		t.Fatal("post-restart run found data resident")
	}
	if s := db.CacheStats(); s.Chunks == 0 {
		t.Fatalf("cache stats = %+v", s)
	}
}

func TestCacheDisabled(t *testing.T) {
	dir := genRepo(t, 1)
	db, err := Open(dir, Config{Approach: registrar.Lazy, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	sql := tQueries()[4]
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.ChunksLoaded == 0 {
		t.Fatalf("uncached stats = %+v", res.Stats)
	}
	if s := db.CacheStats(); s.Chunks != 0 {
		t.Fatal("cache should be absent")
	}
}

func TestExplainMarksQf(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query("EXPLAIN " + tQueries()[4])
	if err != nil {
		t.Fatal(err)
	}
	if out := planText(res); !strings.Contains(out, "[Qf]") || !strings.Contains(out, "type: T4") {
		t.Fatalf("explain:\n%s", out)
	}
	if _, err := db.Query("EXPLAIN not sql"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestWarmUp(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	if err := db.WarmUp(tQueries()[4], 2); err != nil {
		t.Fatal(err)
	}
	if err := db.WarmUp("broken", 1); err == nil {
		t.Fatal("warmup accepted bad SQL")
	}
}

func TestDerivationUsesLazyLoading(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	// A T2 query touches only H, but deriving H's windows must lazily
	// ingest the FIAM chunk behind the scenes.
	res, err := db.Query(tQueries()[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.DMd.Computed == 0 {
		t.Fatal("nothing derived")
	}
	if res.DMd.Derivation <= 0 {
		t.Fatal("no derivation time")
	}
	if db.CacheStats().Chunks == 0 {
		t.Fatal("derivation did not ingest chunks")
	}
	if res.Rows() == 0 {
		t.Fatal("T2 returned nothing")
	}
	// Every requested (clamped) window materialized and is returned.
	if res.Rows() != res.DMd.Requested {
		t.Fatalf("rows = %d, requested = %d", res.Rows(), res.DMd.Requested)
	}
}

func TestReportSizesGrowUnderLazy(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	before := db.Report().DataBytes
	if _, err := db.Query(tQueries()[4]); err != nil {
		t.Fatal(err)
	}
	after := db.Report().DataBytes
	if after <= before {
		t.Fatalf("data bytes did not grow: %d -> %d", before, after)
	}
}

func TestEagerIndexPrunesLikeLazy(t *testing.T) {
	dir := genRepo(t, 2)
	dbI := open(t, dir, registrar.EagerIndex)
	res, err := dbI.Query(tQueries()[4])
	if err != nil {
		t.Fatal(err)
	}
	// FIAM owns 2 of the 8 chunks; the clustered index prunes to 2.
	if res.Stats.ChunksSelected != 2 {
		t.Fatalf("selected = %d", res.Stats.ChunksSelected)
	}
	if dbI.Report().IndexBytes <= 0 {
		t.Fatal("no index bytes")
	}
	if dbI.Report().Breakdown.Indexing <= 0 {
		t.Fatal("no indexing cost")
	}
}

func TestStatsStageTimings(t *testing.T) {
	dir := genRepo(t, 1)
	db := open(t, dir, registrar.Lazy)
	res, err := db.Query(tQueries()[4])
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Stage1 <= 0 || st.Stage2 <= 0 {
		t.Fatalf("stage timings = %+v", st)
	}
	if st.Total() != st.Stage1+st.Load+st.Stage2 {
		t.Fatal("total mismatch")
	}
}

// TestSamplingEndToEnd checks the §VIII approximative answering path
// through SQL: a sampled average stays within the data's value range
// and touches fewer chunks.
func TestSamplingEndToEnd(t *testing.T) {
	dir := genRepo(t, 4)
	db := open(t, dir, registrar.Lazy)
	exact, err := db.Query(`
		SELECT AVG(D.sample_value) FROM dataview
		WHERE F.station = 'FIAM'
		  AND D.sample_time >= '2010-01-01T00:00:00.000'
		  AND D.sample_time < '2010-01-05T00:00:00.000'`)
	if err != nil {
		t.Fatal(err)
	}
	db2 := open(t, dir, registrar.Lazy)
	approx, err := db2.Query(`
		SELECT AVG(D.sample_value) FROM dataview
		WHERE F.station = 'FIAM'
		  AND D.sample_time >= '2010-01-01T00:00:00.000'
		  AND D.sample_time < '2010-01-05T00:00:00.000'
		SAMPLE 50`)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Stats.ChunksSelected >= exact.Stats.ChunksSelected {
		t.Fatalf("sampling did not reduce chunks: %d vs %d",
			approx.Stats.ChunksSelected, exact.Stats.ChunksSelected)
	}
	if approx.Stats.SampleFraction >= 1 || approx.Stats.SampleFraction <= 0 {
		t.Fatalf("fraction = %v", approx.Stats.SampleFraction)
	}
}
