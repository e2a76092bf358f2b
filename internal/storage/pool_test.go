package storage

import (
	"sync"
	"testing"
)

// TestPooledBuilderRoundTrip checks the core ownership cycle: a pooled
// builder's column checks out of the pool and PutColumn returns it,
// leaving the outstanding gauge where it started.
func TestPooledBuilderRoundTrip(t *testing.T) {
	before := Outstanding()
	for _, k := range []Kind{KindInt64, KindFloat64, KindBool, KindTime} {
		b := NewPooledBuilder(k, 16)
		for i := 0; i < 8; i++ {
			b.AppendFrom(sampleColumn(k, 8), i)
		}
		c := b.Finish()
		if c.Len() != 8 {
			t.Fatalf("%v: built %d rows, want 8", k, c.Len())
		}
		if Outstanding() != before+1 {
			t.Fatalf("%v: outstanding %d, want %d", k, Outstanding(), before+1)
		}
		PutColumn(c)
		if Outstanding() != before {
			t.Fatalf("%v: outstanding %d after put, want %d", k, Outstanding(), before)
		}
	}
}

func sampleColumn(k Kind, n int) Column {
	switch k {
	case KindInt64:
		return NewInt64Column(make([]int64, n))
	case KindFloat64:
		return NewFloat64Column(make([]float64, n))
	case KindBool:
		return NewBoolColumn(make([]bool, n))
	case KindTime:
		return NewTimeColumn(make([]int64, n))
	default:
		panic("sampleColumn")
	}
}

// TestPutBatchDuplicateColumn guards the SELECT a, a shape: a column
// referenced twice in one batch is recycled exactly once.
func TestPutBatchDuplicateColumn(t *testing.T) {
	b := NewPooledBuilder(KindInt64, 8)
	b.(*Int64Builder).Append(1)
	c := b.Finish()
	batch := NewPooledBatch(c, c)
	PutBatch(batch)
	RequireNoLeaks(t)
}

// TestViewWithSelOwnership checks the pooled selection view: attaching
// a selection to an unpooled batch borrows a pooled header, and the
// consumer's PutBatch (or a materializing append) returns it.
func TestViewWithSelOwnership(t *testing.T) {
	base := NewBatch(NewInt64Column([]int64{1, 2, 3, 4}))
	v := ViewWithSel(base, IdentitySel(4)[:2])
	if v.Len() != 2 {
		t.Fatalf("view len %d, want 2", v.Len())
	}
	out := NewRelation()
	out.Append(v) // materializes: gathers rows, recycles sel and header
	RequireNoLeaks(t)
	if out.Rows() != 2 {
		t.Fatalf("rows %d, want 2", out.Rows())
	}
	// The base batch is untouched and still owned by its creator.
	if base.Len() != 4 {
		t.Fatalf("base len %d, want 4", base.Len())
	}
}

// TestRelationReleaseMixed releases a relation holding a pooled batch
// next to a shared (unpooled) batch: only the pooled memory returns.
func TestRelationReleaseMixed(t *testing.T) {
	shared := NewBatch(NewInt64Column([]int64{9, 9}))
	pb := NewPooledBuilder(KindInt64, 4)
	pb.(*Int64Builder).Append(1)
	pb.(*Int64Builder).Append(2)
	pooledBatch := NewPooledBatch(pb.Finish())
	rel := NewRelation()
	rel.Append(shared)
	rel.Append(pooledBatch)
	rel.Release()
	RequireNoLeaks(t)
	if rel.Rows() != 0 {
		t.Fatalf("released relation reports %d rows", rel.Rows())
	}
	// The shared batch is untouched.
	if shared.Len() != 2 || Int64s(shared.Cols[0])[0] != 9 {
		t.Fatalf("shared batch mutated by release")
	}
}

// TestGatherPooledMatchesGather proves the pooled gather emits the same
// values as the plain gather for every column kind.
func TestGatherPooledMatchesGather(t *testing.T) {
	idx := []int32{3, 1, 3, 0}
	cols := []Column{
		NewInt64Column([]int64{10, 11, 12, 13}),
		NewTimeColumn([]int64{20, 21, 22, 23}),
		NewFloat64Column([]float64{0.5, 1.5, 2.5, 3.5}),
		NewBoolColumn([]bool{true, false, true, false}),
		NewStringColumn([]string{"a", "b", "a", "c"}),
	}
	for _, c := range cols {
		want := c.Gather(idx)
		got := GatherPooled(c, idx)
		for i := range idx {
			if ValueAt(got, i) != ValueAt(want, i) {
				t.Fatalf("%T: row %d = %v, want %v", c, i, ValueAt(got, i), ValueAt(want, i))
			}
		}
		PutColumn(got)
	}
	RequireNoLeaks(t)
}

// TestSetPoolingOff checks the differential toggle: with pooling off,
// producers hand out unpooled memory, puts are no-ops, and the
// outstanding gauge never moves.
func TestSetPoolingOff(t *testing.T) {
	SetPooling(false)
	defer SetPooling(true)
	before := Outstanding()
	b := NewPooledBuilder(KindFloat64, 8)
	b.(*Float64Builder).Append(1.5)
	c := b.Finish()
	batch := NewPooledBatch(c)
	if Outstanding() != before {
		t.Fatalf("outstanding moved with pooling off")
	}
	PutBatch(batch)
	if Outstanding() != before {
		t.Fatalf("put moved the gauge with pooling off")
	}
}

// TestPooledCoalescerMultiFlushPoolingOff pins the pooling-off
// fallback of NewPooledBatch: each flush must own its column slice, or
// a second flush overwrites the first batch's columns through the
// coalescer's reused scratch.
func TestPooledCoalescerMultiFlushPoolingOff(t *testing.T) {
	SetPooling(false)
	defer SetPooling(true)
	kinds := []Kind{KindInt64}
	c := NewPooledCoalescer(kinds)
	out := NewRelation()
	mkSel := func(v int64) *Batch {
		vals := make([]int64, BatchSize)
		for i := range vals {
			vals[i] = v
		}
		return NewBatch(NewInt64Column(vals)).WithSel(IdentitySel(BatchSize))
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

// TestPoolConcurrentOwnership hammers the pools from many goroutines
// under -race: every goroutine runs full build→batch→release cycles on
// shared pools; the gauge returns to its baseline.
func TestPoolConcurrentOwnership(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				bl := NewPooledBuilder(KindInt64, BatchSize)
				for r := 0; r < 64; r++ {
					bl.(*Int64Builder).Append(int64(r))
				}
				c := bl.Finish()
				g2 := GatherPooled(c, []int32{0, 5, 9})
				rel := NewRelation()
				rel.Append(NewPooledBatch(c))
				rel.Append(NewPooledBatch(g2))
				rel.Release()
			}
		}()
	}
	wg.Wait()
	RequireNoLeaks(t)
}

// TestZoneInheritance asserts the incremental zone-map protocol: a
// snapshot cloned for append inherits the parent's cached per-batch
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

	child := parent.CloneForAppend(1)
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

// TestGatherRunsPooled: run k holds the source row idx[k] over its
// rows, strings share the dictionary, the ends are the column's own (the
// caller's vector may be reused at once), and the column is owned by the
// caller whether or not pooling is on: PutColumn recycles it, and
// disowning it leaves the pools balanced too.
func TestGatherRunsPooled(t *testing.T) {
	defer SetPooling(true)
	src := NewFloat64Column([]float64{10, 20, 30})
	tags := NewStringColumn([]string{"a", "b", "c"})
	for _, pooling := range []bool{true, false} {
		SetPooling(pooling)
		ends := []int32{2, 3, 7}
		c := GatherRunsPooled(src, []int32{2, 0, 1}, ends)
		ends[0] = 1
		if got := Float64s(c); len(got) != 7 || got[0] != 30 || got[1] != 30 || got[2] != 10 || got[6] != 20 {
			t.Fatalf("float runs: %v", got)
		}
		PutColumn(c)
		c = GatherRunsPooled(tags, []int32{2, 1}, []int32{4, 6})
		if c.Kind() != KindString || c.Len() != 6 || StringAt(c, 3) != "c" || StringAt(c, 4) != "b" {
			t.Fatalf("string runs: %v rows, %q %q", c.Len(), StringAt(c, 3), StringAt(c, 4))
		}
		if sc := Strings(c); &sc.Dict()[0] != &tags.Dict()[0] {
			t.Fatal("string runs copied the dictionary")
		}
		b := NewPooledBatch(c)
		DisownBatch(b)
		RequireNoLeaks(t)
	}
}
