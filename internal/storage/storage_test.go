package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInt64Column(t *testing.T) {
	c := NewInt64Column([]int64{1, 2, 3, 4, 5})
	if c.Kind() != KindInt64 {
		t.Fatalf("kind = %v", c.Kind())
	}
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.MemSize() != 40 {
		t.Fatalf("mem = %d", c.MemSize())
	}
	s := c.Slice(1, 3).(*Int64Column)
	if s.Len() != 2 || s.Value(0) != 2 || s.Value(1) != 3 {
		t.Fatalf("slice = %+v", s)
	}
	g := c.Gather([]int32{4, 0, 2}).(*Int64Column)
	if g.Value(0) != 5 || g.Value(1) != 1 || g.Value(2) != 3 {
		t.Fatalf("gather = %+v", g)
	}
}

func TestTimeColumnKind(t *testing.T) {
	c := NewTimeColumn([]int64{10, 20})
	if c.Kind() != KindTime {
		t.Fatalf("kind = %v", c.Kind())
	}
	if Int64s(c)[1] != 20 {
		t.Fatal("Int64s on TimeColumn failed")
	}
}

func TestFloat64Column(t *testing.T) {
	c := NewFloat64Column([]float64{1.5, -2.5})
	if c.Kind() != KindFloat64 || c.Len() != 2 {
		t.Fatalf("bad column %v", c)
	}
	if got := c.Gather([]int32{1}).(*Float64Column).Value(0); got != -2.5 {
		t.Fatalf("gather = %v", got)
	}
}

func TestBoolColumn(t *testing.T) {
	c := NewBoolColumn([]bool{true, false, true})
	if c.MemSize() != 3 {
		t.Fatalf("mem = %d", c.MemSize())
	}
	if got := c.Slice(2, 3).(*BoolColumn).Value(0); !got {
		t.Fatal("slice lost value")
	}
}

func TestStringColumnDictionary(t *testing.T) {
	c := NewStringColumn([]string{"ISK", "FIAM", "ISK", "ISK", "FIAM"})
	if len(c.Dict()) != 2 {
		t.Fatalf("dict = %v", c.Dict())
	}
	if c.Value(0) != "ISK" || c.Value(1) != "FIAM" || c.Value(3) != "ISK" {
		t.Fatal("values scrambled")
	}
	if c.Code(0) != c.Code(2) {
		t.Fatal("equal strings got different codes")
	}
	if c.Lookup("FIAM") != c.Code(1) {
		t.Fatal("lookup mismatch")
	}
	if c.Lookup("absent") != -1 {
		t.Fatal("lookup of absent value should be -1")
	}
	g := c.Gather([]int32{1, 1, 0}).(*StringColumn)
	if g.Value(0) != "FIAM" || g.Value(2) != "ISK" {
		t.Fatal("gather scrambled strings")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindInt64:   "BIGINT",
		KindFloat64: "DOUBLE",
		KindBool:    "BOOLEAN",
		KindString:  "VARCHAR",
		KindTime:    "TIMESTAMP",
		KindInvalid: "INVALID",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBuilders(t *testing.T) {
	kinds := []Kind{KindInt64, KindFloat64, KindBool, KindString, KindTime}
	for _, k := range kinds {
		b := NewBuilder(k, 4)
		if b.Kind() != k {
			t.Fatalf("builder kind = %v, want %v", b.Kind(), k)
		}
		switch k {
		case KindInt64, KindTime:
			b.AppendAny(int64(7))
		case KindFloat64:
			b.AppendAny(3.14)
		case KindBool:
			b.AppendAny(true)
		case KindString:
			b.AppendAny("x")
		}
		if b.Len() != 1 {
			t.Fatalf("len after append = %d", b.Len())
		}
		c := b.Finish()
		if c.Kind() != k || c.Len() != 1 {
			t.Fatalf("finished column %v/%d", c.Kind(), c.Len())
		}
	}
}

func TestAppendFromRoundTrip(t *testing.T) {
	src := NewStringColumn([]string{"a", "b", "c"})
	b := NewStringBuilder(3)
	for i := 0; i < src.Len(); i++ {
		b.AppendFrom(src, i)
	}
	got := b.FinishString()
	for i := 0; i < 3; i++ {
		if got.Value(i) != src.Value(i) {
			t.Fatalf("row %d: %q != %q", i, got.Value(i), src.Value(i))
		}
	}
}

func TestBatchValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch did not panic")
		}
	}()
	NewBatch(NewInt64Column([]int64{1}), NewInt64Column([]int64{1, 2}))
}

func TestBatchSliceGather(t *testing.T) {
	b := NewBatch(
		NewInt64Column([]int64{1, 2, 3, 4}),
		NewStringColumn([]string{"a", "b", "c", "d"}),
	)
	if b.Len() != 4 || b.Width() != 2 {
		t.Fatalf("len=%d width=%d", b.Len(), b.Width())
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || ValueAt(s.Cols[1], 0) != "b" {
		t.Fatalf("slice = %v", s)
	}
	g := b.Gather([]int32{3, 0})
	if ValueAt(g.Cols[0], 0) != int64(4) || ValueAt(g.Cols[1], 1) != "a" {
		t.Fatalf("gather wrong")
	}
}

func TestRelationFlatten(t *testing.T) {
	r := NewRelation()
	r.Append(NewBatch(NewInt64Column([]int64{1, 2}), NewStringColumn([]string{"x", "y"})))
	r.Append(NewBatch(NewInt64Column([]int64{3}), NewStringColumn([]string{"z"})))
	r.Append(&Batch{}) // empty: ignored
	if r.Rows() != 3 {
		t.Fatalf("rows = %d", r.Rows())
	}
	f := r.Flatten()
	if f.Len() != 3 {
		t.Fatalf("flatten len = %d", f.Len())
	}
	want := []string{"x", "y", "z"}
	for i, w := range want {
		if ValueAt(f.Cols[1], i) != w {
			t.Fatalf("row %d = %v, want %v", i, ValueAt(f.Cols[1], i), w)
		}
	}
	// Flatten of single-batch relation returns the batch itself.
	r2 := NewRelation()
	b := NewBatch(NewInt64Column([]int64{9}))
	r2.Append(b)
	if r2.Flatten() != b {
		t.Fatal("single-batch flatten should be identity")
	}
	// Flatten of empty relation.
	if NewRelation().Flatten().Len() != 0 {
		t.Fatal("empty flatten should be empty")
	}
}

// Property: Slice-then-Gather equals Gather on adjusted indexes for
// random int64 columns.
func TestQuickSliceGatherConsistency(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) < 2 {
			return true
		}
		c := NewInt64Column(vals)
		lo, hi := 1, len(vals)
		s := c.Slice(lo, hi)
		idx := make([]int32, s.Len())
		for i := range idx {
			idx[i] = int32(i)
		}
		g1 := s.Gather(idx).(*Int64Column)
		for i := 0; i < g1.Len(); i++ {
			if g1.Value(i) != vals[lo+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dictionary encoding round-trips arbitrary string slices.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		c := NewStringColumn(vals)
		if c.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if c.Value(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Relation.Flatten preserves row order for random batch splits.
func TestQuickFlattenOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		r := NewRelation()
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			r.Append(NewBatch(NewInt64Column(vals[lo:hi])))
			lo = hi
		}
		f := r.Flatten()
		got := make([]int64, 0, n)
		if f.Len() > 0 {
			got = append(got, Int64s(f.Cols[0])...)
		}
		if !reflect.DeepEqual(got, vals) && !(len(got) == 0 && n == 0) {
			t.Fatalf("trial %d: flatten scrambled rows", trial)
		}
	}
}

// TestGatherPooledMatchesGather checks Gather for every column kind and
// shape, run columns included, against the source rows it names. (The
// name is from when a pooled gather sat beside this one.)
func TestGatherPooledMatchesGather(t *testing.T) {
	idx := []int32{3, 1, 3, 0}
	cols := []Column{
		NewInt64Column([]int64{10, 11, 12, 13}),
		NewTimeColumn([]int64{20, 21, 22, 23}),
		NewFloat64Column([]float64{0.5, 1.5, 2.5, 3.5}),
		NewBoolColumn([]bool{true, false, true, false}),
		NewStringColumn([]string{"a", "b", "a", "c"}),
		NewRunColumn(KindInt64, []int64{7, 8}, []int32{1, 4}),
	}
	for _, c := range cols {
		got := c.Gather(idx)
		if got.Len() != len(idx) {
			t.Fatalf("%T: gathered %d rows, want %d", c, got.Len(), len(idx))
		}
		if _, runs := got.(*RunColumn); runs {
			t.Fatalf("%T: gather kept the run shape", c)
		}
		for i, j := range idx {
			if ValueAt(got, i) != ValueAt(c, int(j)) {
				t.Fatalf("%T: row %d = %v, want %v", c, i, ValueAt(got, i), ValueAt(c, int(j)))
			}
		}
	}
}

// TestPooledCoalescerMultiFlushPoolingOff: each flush owns its column
// slice, so a second flush cannot overwrite the first batch's columns.
// (The name is from the pool's off switch, whose fallback it pinned.)
func TestPooledCoalescerMultiFlushPoolingOff(t *testing.T) {
	c := NewCoalescer([]Kind{KindInt64})
	out := NewRelation()
	mkSel := func(v int64) *Batch {
		vals := make([]int64, BatchSize)
		for i := range vals {
			vals[i] = v
		}
		sel := make([]int32, BatchSize)
		for i := range sel {
			sel[i] = int32(i)
		}
		return NewBatch(NewInt64Column(vals)).WithSel(sel)
	}
	c.Add(out, mkSel(1)) // flush #1 (exactly full)
	c.Add(out, mkSel(2)) // flush #2
	c.Flush(out)
	if len(out.Batches()) != 2 {
		t.Fatalf("got %d batches, want 2", len(out.Batches()))
	}
	if got := Int64s(out.Batches()[0].Cols[0])[0]; got != 1 {
		t.Fatalf("batch 0 overwritten by later flush: got %d, want 1", got)
	}
	if got := Int64s(out.Batches()[1].Cols[0])[0]; got != 2 {
		t.Fatalf("batch 1 = %d, want 2", got)
	}
}

// TestZoneInheritance asserts the incremental zone-map protocol: a
// snapshot grown from a parent's Head inherits the parent's cached per-batch
// bounds, and only the appended tail batches are ever scanned.
func TestZoneInheritance(t *testing.T) {
	mk := func(lo int64) *Batch {
		vals := []int64{lo, lo + 1, lo + 2}
		return NewBatch(NewInt64Column(vals), NewFloat64Column(make([]float64, 3)))
	}
	parent := NewRelation()
	for i := int64(0); i < 3; i++ {
		parent.Append(mk(i * 10))
	}
	base := ZoneComputations()
	z := parent.Zone(2, 0)
	if !z.Ok || z.Min != 20 || z.Max != 22 {
		t.Fatalf("zone = %+v, want [20,22]", z)
	}
	if got := ZoneComputations() - base; got != 3 {
		t.Fatalf("computed %d batch bounds on first use, want 3", got)
	}

	child := parent.Head(3, 1)
	child.Append(mk(100))
	base = ZoneComputations()
	z = child.Zone(3, 0)
	if !z.Ok || z.Min != 100 || z.Max != 102 {
		t.Fatalf("tail zone = %+v, want [100,102]", z)
	}
	if got := ZoneComputations() - base; got != 1 {
		t.Fatalf("append recomputed %d batch bounds, want 1 (tail only)", got)
	}
	// The parent snapshot's cache is untouched and still valid.
	base = ZoneComputations()
	if z := parent.Zone(0, 0); !z.Ok || z.Min != 0 {
		t.Fatalf("parent zone = %+v", z)
	}
	if got := ZoneComputations() - base; got != 0 {
		t.Fatalf("parent recomputed %d bounds after child append, want 0", got)
	}
}
