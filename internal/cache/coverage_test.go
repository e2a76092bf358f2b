package cache

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sommelier/internal/storage"
)

func TestCoversUnion(t *testing.T) {
	for _, c := range []struct {
		have, want []int64
		covers     bool
		union      []int64
	}{
		{nil, nil, true, nil},
		{nil, []int64{3}, true, nil},
		{[]int64{3}, nil, false, nil},
		{[]int64{1, 3}, []int64{3}, true, []int64{1, 3}},
		{[]int64{1, 3}, []int64{2, 3}, false, []int64{1, 2, 3}},
		{[]int64{1, 3}, []int64{}, true, []int64{1, 3}},
		{[]int64{}, []int64{}, true, []int64{}},
		{[]int64{}, []int64{5}, false, []int64{5}},
	} {
		if got := Covers(c.have, c.want); got != c.covers {
			t.Errorf("Covers(%v, %v) = %v", c.have, c.want, got)
		}
		if got := Union(c.have, c.want); !slices.Equal(got, c.union) || (got == nil) != (c.union == nil) {
			t.Errorf("Union(%v, %v) = %v", c.have, c.want, got)
		}
	}
}

// TestDiskTierCoverage: a block serves only the promotes it covers,
// reporting its coverage to the others; a spill supersedes it only by
// covering strictly more — the old bytes stay dead in the file, counted
// in BytesUsed — and the coverage survives a reopen.
func TestDiskTierCoverage(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := tierRel(50, 1), tierRel(100, 1)
	dt.Spill(1, narrow, []int64{2}, nil)
	dt.WaitIdle()
	used := dt.Stats().BytesUsed
	if rel, cov := dt.PromoteInto(1, []int64{1}, nil); rel != nil || !slices.Equal(cov, []int64{2}) {
		t.Fatalf("uncovered promote = %v, coverage %v", rel, cov)
	}
	if dt.Promote(1) != nil {
		t.Fatal("a partial block served a whole-chunk promote")
	}
	rel, cov := dt.PromoteInto(1, []int64{2}, nil)
	if rel == nil || !slices.Equal(cov, []int64{2}) {
		t.Fatalf("covered promote = %v, coverage %v", rel, cov)
	}
	requireSameRows(t, narrow, rel)

	dt.Spill(1, tierRel(10, 1), []int64{3}, nil) // covers other segments: refused
	dt.SpillSync(1, narrow, 2)                   // covers no more: redundant
	dt.WaitIdle()
	if s := dt.Stats(); s.Spills != 1 || s.SpillRefused != 1 || s.BytesUsed != used {
		t.Fatalf("after the refused spills: %+v", s)
	}
	dt.SpillSync(1, wide, 1, 2) // strictly more: supersedes
	dt.WaitIdle()
	if s := dt.Stats(); s.Spills != 2 || s.Blocks != 1 || s.BytesUsed <= used {
		t.Fatalf("after the superseding spill: %+v", s)
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}

	dt, err = OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	if rel, cov := dt.PromoteInto(1, []int64{3}, nil); rel != nil || !slices.Equal(cov, []int64{1, 2}) {
		t.Fatalf("reopened uncovered promote = %v, coverage %v", rel, cov)
	}
	rel, _ = dt.PromoteInto(1, []int64{1}, nil)
	if rel == nil {
		t.Fatal("the superseding block is lost across the reopen")
	}
	requireSameRows(t, wide, rel)
	dt.SpillSync(1, narrow) // the whole chunk supersedes any part
	dt.WaitIdle()
	if rel = dt.Promote(1); rel == nil {
		t.Fatal("the whole block does not serve")
	}
	requireSameRows(t, narrow, rel)
	if _, err := os.Stat(filepath.Join(dir, "D.seg.corrupt")); err == nil {
		t.Fatal("a clean segment with coverage was set aside")
	}
}

// TestDiskTierReclaimsDeadBytes: a chunk widened block by block leaves
// its superseded blocks dead in the file, counted in BytesUsed, until
// the next open rewrites the file with only the live blocks.
func TestDiskTierReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	other, whole := tierRel(100, 2), tierRel(100, 1)
	dt.SpillSync(2, other)
	dt.WaitIdle()
	base := dt.Stats().BytesUsed
	// The live blocks' size: other's, and whole's spilled alone (the two
	// differ by the width of their zone bounds' varints).
	alone, err := OpenDiskTier(t.TempDir(), "D", 0)
	if err != nil {
		t.Fatal(err)
	}
	alone.SpillSync(1, whole)
	alone.WaitIdle()
	live := base + alone.Stats().BytesUsed - segHeaderLen
	if err := alone.Close(); err != nil {
		t.Fatal(err)
	}
	for i, segs := range [][]int64{{0}, {0, 1}, {0, 1, 2}, nil} {
		dt.SpillSync(1, tierRel(25*(i+1), 1), segs...)
		dt.WaitIdle()
	}
	grown := dt.Stats().BytesUsed
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen < 2; reopen++ {
		dt, err = OpenDiskTier(dir, "D", 0)
		if err != nil {
			t.Fatal(err)
		}
		s := dt.Stats()
		if s.Blocks != 2 || s.BytesUsed != live || s.BytesUsed >= grown {
			t.Fatalf("reopen %d: %+v; want 2 blocks in %d bytes (%d before)", reopen, s, live, grown)
		}
		for id, want := range map[int64]*storage.Relation{1: whole, 2: other} {
			rel := dt.Promote(id)
			if rel == nil {
				t.Fatalf("reopen %d: chunk %d lost", reopen, id)
			}
			requireSameRows(t, want, rel)
		}
		if err := dt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if ms, _ := filepath.Glob(filepath.Join(dir, "D.seg.*")); len(ms) != 0 {
		t.Fatalf("left behind: %v", ms)
	}
}
