package registrar

import (
	"os"
	"path/filepath"
	"testing"

	"sommelier/internal/seisgen"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

func genRepo(t *testing.T, days int) (string, *seisgen.Manifest) {
	t.Helper()
	dir := t.TempDir()
	cfg := seisgen.DefaultConfig(days)
	cfg.SamplesPerFile = 240
	cfg.MeanSegments = 3
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dir, man
}

func TestDiscoverRepository(t *testing.T) {
	dir, man := genRepo(t, 2)
	repo, err := DiscoverRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Uris) != len(man.Files) {
		t.Fatalf("files = %d, want %d", len(repo.Uris), len(man.Files))
	}
	// Deterministic (sorted) order.
	for i := 1; i < len(repo.Uris); i++ {
		if repo.Uris[i-1] >= repo.Uris[i] {
			t.Fatal("URIs not sorted")
		}
	}
	if _, err := DiscoverRepository(t.TempDir()); err == nil {
		t.Fatal("empty repository accepted")
	}
	if _, err := repo.URI(int64(len(repo.Uris))); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if got := repo.AllChunkIDs(seismic.TableD); len(got) != len(repo.Uris) || got[0] != 0 {
		t.Fatalf("chunk ids = %v", got)
	}
}

func TestRegisterMetadata(t *testing.T) {
	dir, man := genRepo(t, 2)
	repo, _ := DiscoverRepository(dir)
	cat := seismic.NewCatalog()
	nSegs, dur, err := RegisterMetadata(cat, repo)
	if err != nil {
		t.Fatal(err)
	}
	if nSegs != man.TotalSegments() {
		t.Fatalf("segments = %d, want %d", nSegs, man.TotalSegments())
	}
	if dur <= 0 {
		t.Fatal("no time recorded")
	}
	f, _ := cat.Table(seismic.TableF)
	s, _ := cat.Table(seismic.TableS)
	d, _ := cat.Table(seismic.TableD)
	if f.Rows() != len(man.Files) {
		t.Fatalf("F rows = %d", f.Rows())
	}
	if s.Rows() != man.TotalSegments() {
		t.Fatalf("S rows = %d", s.Rows())
	}
	if d.Rows() != 0 {
		t.Fatal("registration must not load actual data")
	}
	// Sample counts in S must sum to the manifest total.
	flat := s.Data().Flatten()
	var sum int64
	for _, c := range storage.Int64s(flat.Cols[s.Schema.IndexOf("sample_count")]) {
		sum += c
	}
	if sum != man.TotalSamples() {
		t.Fatalf("sample_count sum = %d, want %d", sum, man.TotalSamples())
	}
}

func TestLoadChunk(t *testing.T) {
	dir, man := genRepo(t, 1)
	repo, _ := DiscoverRepository(dir)
	rel, err := repo.LoadChunk(seismic.TableD, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find the manifest entry of chunk 0 (URIs sorted).
	var want int
	for _, fi := range man.Files {
		if fi.URI == repo.Uris[0] {
			want = fi.Samples
		}
	}
	if rel.Rows() != want {
		t.Fatalf("rows = %d, want %d", rel.Rows(), want)
	}
	if _, err := repo.LoadChunk("nosuch", 0); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := repo.LoadChunk(seismic.TableD, 9999); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

func TestLoadAllPlainVsClustered(t *testing.T) {
	dir, man := genRepo(t, 1)
	repo, _ := DiscoverRepository(dir)

	catP := seismic.NewCatalog()
	rowsP, _, err := LoadAllPlain(catP, repo)
	if err != nil {
		t.Fatal(err)
	}
	dP, _ := catP.Table(seismic.TableD)
	if ids := dP.Chunks().IDs(); len(ids) != 1 || ids[0] != MonolithChunkID {
		t.Fatalf("plain layout chunks = %v", ids)
	}

	catC := seismic.NewCatalog()
	rowsC, _, err := LoadAllClustered(catC, repo)
	if err != nil {
		t.Fatal(err)
	}
	dC, _ := catC.Table(seismic.TableD)
	if got := len(dC.Chunks().IDs()); got != len(repo.Uris) {
		t.Fatalf("clustered layout chunks = %d", got)
	}
	if rowsP != rowsC || rowsP != man.TotalSamples() {
		t.Fatalf("rows: plain=%d clustered=%d manifest=%d", rowsP, rowsC, man.TotalSamples())
	}
}

func TestLoadAllCSV(t *testing.T) {
	dir, man := genRepo(t, 1)
	repo, _ := DiscoverRepository(dir)
	cat := seismic.NewCatalog()
	rows, csvBytes, toCSV, toDB, err := LoadAllCSV(cat, repo, filepath.Join(t.TempDir(), "csv"))
	if err != nil {
		t.Fatal(err)
	}
	if rows != man.TotalSamples() {
		t.Fatalf("rows = %d, want %d", rows, man.TotalSamples())
	}
	if csvBytes <= man.TotalBytes() {
		t.Fatalf("CSV (%d B) should exceed binary (%d B)", csvBytes, man.TotalBytes())
	}
	if toCSV <= 0 || toDB <= 0 {
		t.Fatal("cost components missing")
	}
}

func TestBuildIndexes(t *testing.T) {
	dir, _ := genRepo(t, 1)
	repo, _ := DiscoverRepository(dir)
	cat := seismic.NewCatalog()
	if _, _, err := RegisterMetadata(cat, repo); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadAllClustered(cat, repo); err != nil {
		t.Fatal(err)
	}
	ix, dur, err := BuildIndexes(cat)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("no indexing time")
	}
	if ix.FByID == nil || ix.SByKey == nil || ix.SToF == nil {
		t.Fatal("indexes missing")
	}
	if len(ix.ZoneMaps) != len(repo.Uris) {
		t.Fatalf("zone maps = %d", len(ix.ZoneMaps))
	}
	if ix.MemSize() <= 0 {
		t.Fatal("index memsize")
	}
	var nilIx *Indexes
	if nilIx.MemSize() != 0 {
		t.Fatal("nil index memsize")
	}
}

func TestCorruptChunkSurfacesOnLoad(t *testing.T) {
	dir, _ := genRepo(t, 1)
	repo, _ := DiscoverRepository(dir)
	// Corrupt the first chunk's payload tail.
	raw, err := os.ReadFile(repo.Uris[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(repo.Uris[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Metadata extraction skips payloads and still succeeds.
	cat := seismic.NewCatalog()
	if _, _, err := RegisterMetadata(cat, repo); err != nil {
		t.Fatal(err)
	}
	// Chunk access must detect the corruption.
	if _, err := repo.LoadChunk(seismic.TableD, 0); err == nil {
		t.Fatal("corrupt chunk loaded")
	}
	// Eager loading surfaces it too.
	if _, _, err := LoadAllPlain(seismic.NewCatalog(), repo); err == nil {
		t.Fatal("corrupt chunk loaded eagerly")
	}
}

func TestApproachesAndBreakdown(t *testing.T) {
	if len(Approaches()) != 5 {
		t.Fatal("expected 5 approaches")
	}
	b := CostBreakdown{MseedToCSV: 1, CSVToDB: 2, MseedToDB: 3, Indexing: 4, DMdDerivation: 5}
	if b.Total() != 15 {
		t.Fatalf("total = %d", b.Total())
	}
	r := Report{MetadataTime: 10, Breakdown: b}
	if r.TotalTime() != 25 {
		t.Fatalf("total time = %d", r.TotalTime())
	}
}
