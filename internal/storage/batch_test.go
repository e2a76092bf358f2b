package storage

import "testing"

func TestBatchWithSel(t *testing.T) {
	b := NewBatch(
		NewInt64Column([]int64{10, 20, 30, 40}),
		NewStringColumn([]string{"a", "b", "c", "d"}),
	)
	sb := b.WithSel([]int32{1, 3})
	if sb.Len() != 2 {
		t.Fatalf("selected Len = %d, want 2", sb.Len())
	}
	if b.Len() != 4 {
		t.Fatalf("base batch mutated: Len = %d", b.Len())
	}
	m := sb.Materialize()
	if m.Len() != 2 || Int64s(m.Cols[0])[0] != 20 || Int64s(m.Cols[0])[1] != 40 {
		t.Fatalf("materialized = %v", Int64s(m.Cols[0]))
	}
	if m.Sel() != nil {
		t.Fatal("materialized batch still carries a selection")
	}

	// A full-length selection is the identity and must not copy.
	full := b.WithSel([]int32{0, 1, 2, 3})
	fm := full.Materialize()
	if fm.Cols[0] != b.Cols[0] {
		t.Fatal("identity selection copied the columns")
	}
}

func TestRelationAppendMaterializes(t *testing.T) {
	r := NewRelation()
	b := NewBatch(NewInt64Column([]int64{1, 2, 3, 4, 5}))
	r.Append(b.WithSel([]int32{}))
	if r.Rows() != 0 {
		t.Fatalf("empty selection appended %d rows", r.Rows())
	}
	r.Append(b.WithSel([]int32{0, 4}))
	if r.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", r.Rows())
	}
	if got := Int64s(r.Batches()[0].Cols[0]); got[0] != 1 || got[1] != 5 {
		t.Fatalf("materialized rows = %v", got)
	}
	if r.Batches()[0].Sel() != nil {
		t.Fatal("relation stored a batch with a pending selection")
	}
}

func TestRelationZones(t *testing.T) {
	r := NewRelation()
	r.Append(NewBatch(NewInt64Column([]int64{5, 1, 9}), NewStringColumn([]string{"x", "y", "z"})))
	r.Append(NewBatch(NewInt64Column([]int64{100, 200, 150}), NewStringColumn([]string{"x", "x", "x"})))
	z := r.Zone(0, 0)
	if !z.Ok || z.Min != 1 || z.Max != 9 {
		t.Fatalf("zone(0,0) = %+v", z)
	}
	z = r.Zone(1, 0)
	if !z.Ok || z.Min != 100 || z.Max != 200 {
		t.Fatalf("zone(1,0) = %+v", z)
	}
	if r.Zone(0, 1).Ok {
		t.Fatal("string column reported a numeric zone")
	}
	if !r.Zone(1, 0).Disjoint(0, 99) {
		t.Fatal("zone [100,200] should be disjoint from [0,99]")
	}
	if r.Zone(1, 0).Disjoint(150, 300) {
		t.Fatal("zone [100,200] overlaps [150,300]")
	}
}
