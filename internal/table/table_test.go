package table

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sommelier/internal/chunkstore"
	"sommelier/internal/storage"
)

func fileSchema() Schema {
	return MustSchema(
		ColumnDef{"file_id", storage.KindInt64},
		ColumnDef{"uri", storage.KindString},
		ColumnDef{"station", storage.KindString},
		ColumnDef{"channel", storage.KindString},
	)
}

func dataSchema() Schema {
	return MustSchema(
		ColumnDef{"file_id", storage.KindInt64},
		ColumnDef{"sample_time", storage.KindTime},
		ColumnDef{"sample_value", storage.KindFloat64},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := fileSchema()
	if s.Width() != 4 {
		t.Fatalf("width = %d", s.Width())
	}
	if s.IndexOf("station") != 2 || s.IndexOf("missing") != -1 {
		t.Fatal("IndexOf wrong")
	}
	if s.KindOf("uri") != storage.KindString || s.KindOf("nope") != storage.KindInvalid {
		t.Fatal("KindOf wrong")
	}
	q := s.QualifiedNames("F")
	if q[0] != "F.file_id" || q[3] != "F.channel" {
		t.Fatalf("qualified = %v", q)
	}
	if _, err := NewSchema(ColumnDef{"a", storage.KindInt64}, ColumnDef{"a", storage.KindInt64}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewSchema(ColumnDef{"", storage.KindInt64}); err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := New("F", GivenMetadata, fileSchema(), []string{"nope"}, ""); err == nil {
		t.Fatal("bad PK accepted")
	}
	if _, err := New("D", ActualData, dataSchema(), nil, ""); err == nil {
		t.Fatal("AD table without chunk key accepted")
	}
	if _, err := New("D", ActualData, dataSchema(), nil, "absent"); err == nil {
		t.Fatal("AD table with unknown chunk key accepted")
	}
	if _, err := New("F", GivenMetadata, fileSchema(), nil, "file_id"); err == nil {
		t.Fatal("chunk key on metadata table accepted")
	}
}

func mdBatch(ids []int64, uris, stations, channels []string) *storage.Batch {
	return storage.NewBatch(
		storage.NewInt64Column(ids),
		storage.NewStringColumn(uris),
		storage.NewStringColumn(stations),
		storage.NewStringColumn(channels),
	)
}

func TestAppendAndPKEnforcement(t *testing.T) {
	f := MustNew("F", GivenMetadata, fileSchema(), []string{"file_id"}, "")
	if err := f.Append(mdBatch([]int64{1, 2}, []string{"a", "b"}, []string{"ISK", "ISK"}, []string{"BHE", "BHN"})); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 2 {
		t.Fatalf("rows = %d", f.Rows())
	}
	err := f.Append(mdBatch([]int64{2}, []string{"c"}, []string{"X"}, []string{"Y"}))
	if err == nil || !strings.Contains(err.Error(), "primary key violation") {
		t.Fatalf("dup PK error = %v", err)
	}
	// Width mismatch.
	if err := f.Append(storage.NewBatch(storage.NewInt64Column([]int64{9}))); err == nil {
		t.Fatal("width mismatch accepted")
	}
	// Kind mismatch.
	bad := storage.NewBatch(
		storage.NewFloat64Column([]float64{1}),
		storage.NewStringColumn([]string{"u"}),
		storage.NewStringColumn([]string{"s"}),
		storage.NewStringColumn([]string{"c"}),
	)
	if err := f.Append(bad); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// mkChunk builds an n-row relation of chunk fid.
func mkChunk(fid int64, n int) *storage.Relation {
	r := storage.NewRelation()
	ids := make([]int64, n)
	ts := make([]int64, n)
	vs := make([]float64, n)
	for i := range ids {
		ids[i] = fid
		ts[i] = int64(i)
		vs[i] = float64(i)
	}
	r.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewTimeColumn(ts), storage.NewFloat64Column(vs)))
	return r
}

func TestChunkLifecycle(t *testing.T) {
	d := MustNew("D", ActualData, dataSchema(), nil, "file_id")
	if err := d.Append(&storage.Batch{}); err == nil {
		t.Fatal("Append on AD table should fail")
	}
	if MustNew("F", GivenMetadata, fileSchema(), nil, "").Chunks() != nil {
		t.Fatal("metadata table with a chunk store")
	}
	chunks := d.Chunks()
	chunks.Install(7, mkChunk(7, 10))
	chunks.Install(3, mkChunk(3, 5))
	if d.Rows() != 15 {
		t.Fatalf("rows = %d", d.Rows())
	}
	if ids := chunks.IDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("chunk ids = %v", ids)
	}
	h, ok := chunks.TryAcquire(3, nil)
	if !ok || h.Rel().Rows() != 5 {
		t.Fatal("chunk 3 missing")
	}
	h.Release()
	if _, ok := chunks.TryAcquire(99, nil); ok {
		t.Fatal("phantom chunk")
	}
	// Installing over a resident chunk replaces it.
	chunks.Install(3, mkChunk(3, 2))
	if d.Rows() != 12 {
		t.Fatalf("rows after replace = %d", d.Rows())
	}
	if d.MemSize() <= 0 {
		t.Fatal("memsize should be positive")
	}
}

// arenaLoader serves n-row chunks whose times and values it writes into
// the arena the store hands it: chunk id holds the value id.
type arenaLoader struct{ n int }

func (l arenaLoader) LoadChunkInto(_ context.Context, _ string, id int64, _ []int64, mem *storage.ChunkMem) (*storage.Relation, []int64, error) {
	a := mem.TakeArena(l.n, l.n)
	ids := make([]int64, l.n)
	for i := range ids {
		ids[i], a.Ints[i], a.Floats[i] = id, int64(i), float64(id)
	}
	r := storage.NewRelation()
	r.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewTimeColumn(a.Ints), storage.NewFloat64Column(a.Floats)))
	return r, nil, nil
}

func (arenaLoader) AllChunkIDs(string) []int64 { return nil }

// TestPinDefersDrop: a handle holds a chunk's memory, not its residency.
// Evicting a chunk takes effect at once, but its arena goes to the next
// load only when the last handle is released.
func TestPinDefersDrop(t *testing.T) {
	d := MustNew("D", ActualData, dataSchema(), nil, "file_id")
	chunks := d.Chunks()
	chunks.Configure(chunkstore.Config{Loader: arenaLoader{n: 4}, CacheBytes: 1 << 20})
	ctx := context.Background()
	value := func(h chunkstore.Handle) float64 {
		return storage.Float64s(h.Rel().Batches()[0].Cols[2])[0]
	}
	h1, err := chunks.Acquire(ctx, 5, nil)
	if err != nil || !h1.Loaded {
		t.Fatalf("acquire: %+v %v", h1, err)
	}
	h2, ok := chunks.TryAcquire(5, nil)
	if !ok {
		t.Fatal("loaded chunk not resident")
	}
	chunks.Clear()
	if ids := chunks.IDs(); len(ids) != 0 {
		t.Fatalf("evicted chunk still resident: %v", ids)
	}
	if st := chunks.Stats(); st.FreeArenas != 0 || value(h1) != 5 {
		t.Fatalf("arena reused under live handles: %+v, value %v", st, value(h1))
	}
	h1.Release()
	if st := chunks.Stats(); st.FreeArenas != 0 {
		t.Fatalf("arena freed before the last handle: %+v", st)
	}
	h2.Release()
	if st := chunks.Stats(); st.FreeArenas != 1 {
		t.Fatalf("arena not returned after the last handle: %+v", st)
	}
	// The next load writes into it.
	h3, err := chunks.Acquire(ctx, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Release()
	if st := chunks.Stats(); st.ArenasReused != 1 || st.ArenasAllocated != 1 || value(h3) != 6 {
		t.Fatalf("stats = %+v, value %v", st, value(h3))
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	f := MustNew("F", GivenMetadata, fileSchema(), []string{"file_id"}, "")
	d := MustNew("D", ActualData, dataSchema(), nil, "file_id")
	if err := c.AddTable(f); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(d); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(f); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if got, ok := c.Table("F"); !ok || got != f {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Table("Z"); ok {
		t.Fatal("phantom table")
	}
	if n := len(c.Tables()); n != 2 {
		t.Fatalf("tables = %d", n)
	}
	v := &View{Name: "dataview", Tables: []string{"F", "D"}, Joins: []JoinPred{{"F.file_id", "D.file_id"}}}
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	if err := c.AddView(v); err == nil {
		t.Fatal("duplicate view accepted")
	}
	if err := c.AddView(&View{Name: "bad1", Tables: []string{"Z"}}); err == nil {
		t.Fatal("view over unknown table accepted")
	}
	if err := c.AddView(&View{Name: "bad2", Tables: []string{"F"}, Joins: []JoinPred{{"F.nope", "D.file_id"}}}); err == nil {
		t.Fatal("view with unknown join column accepted")
	}
	if err := c.AddView(&View{Name: "bad3", Tables: []string{"F"}, Joins: []JoinPred{{"unqualified", "D.file_id"}}}); err == nil {
		t.Fatal("view with unqualified join column accepted")
	}
	if err := c.AddView(&View{Name: "F", Tables: []string{"F"}}); err == nil {
		t.Fatal("view colliding with table accepted")
	}
	if got, ok := c.View("dataview"); !ok || got.Name != "dataview" {
		t.Fatal("view lookup failed")
	}
}

func TestForeignKeys(t *testing.T) {
	c := NewCatalog()
	f := MustNew("F", GivenMetadata, fileSchema(), []string{"file_id"}, "")
	d := MustNew("D", ActualData, dataSchema(), nil, "file_id")
	if err := c.AddTable(f); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(d); err != nil {
		t.Fatal(err)
	}
	fk := ForeignKey{Table: "D", Column: "file_id", RefTable: "F", RefColumn: "file_id"}
	if err := c.AddForeignKey(fk); err != nil {
		t.Fatal(err)
	}
	if got := c.ForeignKeys(); len(got) != 1 || got[0] != fk {
		t.Fatalf("fks = %v", got)
	}
	bad := []ForeignKey{
		{Table: "Z", Column: "x", RefTable: "F", RefColumn: "file_id"},
		{Table: "D", Column: "nope", RefTable: "F", RefColumn: "file_id"},
		{Table: "D", Column: "file_id", RefTable: "Z", RefColumn: "x"},
		{Table: "D", Column: "file_id", RefTable: "F", RefColumn: "nope"},
	}
	for i, fk := range bad {
		if err := c.AddForeignKey(fk); err == nil {
			t.Errorf("bad FK %d accepted", i)
		}
	}
}

func TestSplitQualified(t *testing.T) {
	tab, col, err := SplitQualified("F.station")
	if err != nil || tab != "F" || col != "station" {
		t.Fatalf("split = %q %q %v", tab, col, err)
	}
	for _, bad := range []string{"noqual", ".x", "x.", ""} {
		if _, _, err := SplitQualified(bad); err == nil {
			t.Errorf("SplitQualified(%q) should fail", bad)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !GivenMetadata.IsMetadata() || !DerivedMetadata.IsMetadata() || ActualData.IsMetadata() {
		t.Fatal("IsMetadata wrong")
	}
	if GivenMetadata.String() != "GMd" || DerivedMetadata.String() != "DMd" || ActualData.String() != "AD" {
		t.Fatal("class names wrong")
	}
}

func TestAppendCopyOnWrite(t *testing.T) {
	f := MustNew("F", GivenMetadata, fileSchema(), []string{"file_id"}, "")
	one := func(id float64) *storage.Batch {
		return storage.NewBatch(
			storage.NewInt64Column([]int64{int64(id)}),
			storage.NewStringColumn([]string{"u"}),
			storage.NewStringColumn([]string{"s"}),
			storage.NewStringColumn([]string{"c"}),
		)
	}
	if err := f.Append(one(1)); err != nil {
		t.Fatal(err)
	}
	snap := f.Data()
	if err := f.Append(one(2)); err != nil {
		t.Fatal(err)
	}
	if snap.Rows() != 1 {
		t.Fatalf("snapshot grew to %d rows after a later Append", snap.Rows())
	}
	if f.Data().Rows() != 2 {
		t.Fatalf("table rows = %d", f.Data().Rows())
	}
}

// windowTable is a keyed derived-metadata table shaped like H.
func windowTable() *Table {
	return MustNew("H", DerivedMetadata, MustSchema(
		ColumnDef{"station", storage.KindString},
		ColumnDef{"start", storage.KindTime},
		ColumnDef{"max", storage.KindFloat64},
	), []string{"station", "start"}, "")
}

func windowRows(stations []string, starts []int64, maxs []float64) *storage.Batch {
	return storage.NewBatch(storage.NewStringColumn(stations), storage.NewTimeColumn(starts), storage.NewFloat64Column(maxs))
}

// keys renders a table's rows as "station@start=max", in stored order.
func keys(t *Table) []string {
	flat := t.Data().Flatten()
	var out []string
	for i := 0; i < flat.Len(); i++ {
		out = append(out, fmt.Sprintf("%s@%d=%g", storage.StringAt(flat.Cols[0], i), storage.Int64s(flat.Cols[1])[i], storage.Float64s(flat.Cols[2])[i]))
	}
	return out
}

// TestMergeKeepsKeyOrder: whatever order key-sorted batches arrive in,
// a keyed table holds their rows in key order; an equal key replaces a
// row only under replace, and a refused merge leaves the table as it
// was.
func TestMergeKeepsKeyOrder(t *testing.T) {
	h := windowTable()
	for _, b := range []*storage.Batch{
		windowRows([]string{"ISK", "ISK"}, []int64{5, 7}, []float64{1, 2}),
		windowRows([]string{"FIAM", "ISK"}, []int64{9, 6}, []float64{3, 4}),
	} {
		if err := h.Merge(b, false); err != nil {
			t.Fatal(err)
		}
	}
	want := "[FIAM@9=3 ISK@5=1 ISK@6=4 ISK@7=2]"
	if got := fmt.Sprint(keys(h)); got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	if err := h.Merge(windowRows([]string{"ISK"}, []int64{6}, []float64{8}), false); err == nil || !strings.Contains(err.Error(), "primary key violation") {
		t.Fatalf("equal key without replace: %v", err)
	}
	for _, b := range []*storage.Batch{
		windowRows([]string{"AQU", "AQU"}, []int64{1, 1}, []float64{0, 0}),
		windowRows([]string{"AQU", "AQU"}, []int64{2, 1}, []float64{0, 0}),
	} {
		if err := h.Merge(b, true); err == nil || !strings.Contains(err.Error(), "out of primary-key order") {
			t.Fatalf("a batch out of key order: %v", err)
		}
	}
	if got := fmt.Sprint(keys(h)); got != want {
		t.Fatalf("refused merges changed the table: %s", got)
	}
	if err := h.Merge(windowRows([]string{"AQU", "ISK"}, []int64{1, 6}, []float64{5, 8}), true); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(keys(h)), "[AQU@1=5 FIAM@9=3 ISK@5=1 ISK@6=8 ISK@7=2]"; got != want {
		t.Fatalf("after replace: %s, want %s", got, want)
	}
	// Append on a keyed table is a merge that replaces nothing.
	if err := h.Append(windowRows([]string{"AQU"}, []int64{1}, []float64{0})); err == nil {
		t.Fatal("Append replaced a row")
	}
}

// TestMergeStoresBatchSizeBatches: merged rows are stored as full
// storage.BatchSize batches, so zone maps bound key ranges.
func TestMergeStoresBatchSizeBatches(t *testing.T) {
	h := windowTable()
	n := storage.BatchSize + 10
	stations, starts, maxs := make([]string, n), make([]int64, n), make([]float64, n)
	for i := range stations {
		stations[i], starts[i] = "FIAM", int64(i)
	}
	if err := h.Merge(windowRows(stations, starts, maxs), false); err != nil {
		t.Fatal(err)
	}
	bs := h.Data().Batches()
	if len(bs) != 2 || bs[0].Len() != storage.BatchSize || bs[1].Len() != 10 {
		t.Fatalf("%d batches", len(bs))
	}
	if z := h.Data().Zone(1, 1); z.Min != int64(storage.BatchSize) || z.Max != int64(n-1) {
		t.Fatalf("second batch zone %+v", z)
	}
}
