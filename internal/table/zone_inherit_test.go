package table

import (
	"testing"

	"sommelier/internal/storage"
)

// TestAppendInheritsZoneMaps pins the copy-on-write zone-map protocol
// of metadata tables: a merge keeps every batch before the first one
// its keys reach, with its cached per-batch bounds, so a range scan
// after rows arrive in key order computes bounds only for the rebuilt
// last batch, and a merge into the middle only from there on. Earlier
// snapshots keep their rows and their bounds.
func TestAppendInheritsZoneMaps(t *testing.T) {
	h := windowTable()
	rows := func(lo, n int) *storage.Batch {
		stations, starts, maxs := make([]string, n), make([]int64, n), make([]float64, n)
		for i := range stations {
			stations[i], starts[i] = "ISK", int64(lo+2*i)
		}
		return windowRows(stations, starts, maxs)
	}
	// Four full batches at even starts 0, 2, …
	if err := h.Append(rows(0, 4*storage.BatchSize)); err != nil {
		t.Fatal(err)
	}
	snap := h.Data()
	base := storage.ZoneComputations()
	for i := range 4 {
		snap.Zone(i, 1)
	}
	if got := storage.ZoneComputations() - base; got != 4 {
		t.Fatalf("first scan computed %d batch bounds, want 4", got)
	}

	// Rows past the end: the three leading batches and their bounds are
	// kept, the last is rebuilt with the new rows.
	end := 8 * storage.BatchSize
	if err := h.Append(rows(end, 3)); err != nil {
		t.Fatal(err)
	}
	next := h.Data()
	base = storage.ZoneComputations()
	for i := range len(next.Batches()) {
		if z := next.Zone(i, 1); !z.Ok {
			t.Fatalf("batch %d has no bound", i)
		}
	}
	if n := len(next.Batches()); n != 5 {
		t.Fatalf("%d batches, want 5", n)
	}
	if got := storage.ZoneComputations() - base; got != 2 {
		t.Fatalf("post-append scan computed %d batch bounds, want 2 (the rebuilt tail)", got)
	}
	if z := next.Zone(4, 1); z.Min != int64(end) || z.Max != int64(end+4) {
		t.Fatalf("tail bound = %+v, want [%d,%d]", z, end, end+4)
	}

	// An odd start inside the second batch: the first batch is kept.
	mid := int64(2*storage.BatchSize + 1)
	if err := h.Append(windowRows([]string{"ISK"}, []int64{mid}, []float64{0})); err != nil {
		t.Fatal(err)
	}
	last := h.Data()
	base = storage.ZoneComputations()
	for i := range len(last.Batches()) {
		last.Zone(i, 1)
	}
	if got := storage.ZoneComputations() - base; got != 4 {
		t.Fatalf("post-merge scan computed %d batch bounds, want 4 (batch 1 on)", got)
	}
	if last.Batches()[0] != snap.Batches()[0] {
		t.Fatal("a merge after the first batch rebuilt it")
	}
	if z := last.Zone(1, 1); z.Min != int64(2*storage.BatchSize) || z.Max != int64(4*storage.BatchSize-4) {
		t.Fatalf("merged batch bound = %+v", z)
	}
	// The first snapshot is untouched, bounds included.
	base = storage.ZoneComputations()
	if z := snap.Zone(3, 1); snap.Rows() != 4*storage.BatchSize || z.Max != int64(end-2) {
		t.Fatalf("first snapshot changed: %d rows, bound %+v", snap.Rows(), z)
	}
	if got := storage.ZoneComputations() - base; got != 0 {
		t.Fatalf("first snapshot recomputed %d bounds", got)
	}
}
