package storage

import (
	"errors"
	"math"
	"testing"
)

// segTestRel builds a relation shaped like a table chunk: several
// batches of (time, int64, float64, bool, string) columns, with the
// time column an arithmetic progression (the delta-of-delta sweet
// spot) and the others exercising every codec path.
func segTestRel(t *testing.T, batches, rows int) *Relation {
	t.Helper()
	rel := NewRelation()
	period := int64(20_000_000) // 20ms in ns
	base := int64(1262304000_000_000_000)
	for b := 0; b < batches; b++ {
		times := make([]int64, rows)
		ids := make([]int64, rows)
		vals := make([]float64, rows)
		flags := make([]bool, rows)
		names := make([]string, rows)
		for i := 0; i < rows; i++ {
			times[i] = base + int64(b*rows+i)*period
			ids[i] = int64(b)
			vals[i] = float64(i)*1.5 - float64(b)
			flags[i] = i%3 == 0
			names[i] = []string{"FIAM", "ISK", "AQU"}[i%3]
		}
		// Sprinkle irregularities so the zero-run encoder has to break
		// and resume runs.
		if rows > 4 {
			times[rows/2] += 7
			ids[rows/3] = -42
			vals[rows/4] = math.Inf(1)
			vals[rows/4+1] = math.NaN()
		}
		rel.Append(NewBatch(
			NewTimeColumn(times),
			NewInt64Column(ids),
			NewFloat64Column(vals),
			NewBoolColumn(flags),
			NewStringColumn(names),
		))
	}
	return rel
}

// requireSameRelation asserts a decoded relation is bitwise identical
// to the original: batch boundaries, widths, and every value.
func requireSameRelation(t *testing.T, want, got *Relation) {
	t.Helper()
	wb, gb := want.Batches(), got.Batches()
	if len(wb) != len(gb) {
		t.Fatalf("batches = %d, want %d", len(gb), len(wb))
	}
	for bi := range wb {
		if wb[bi].Len() != gb[bi].Len() || wb[bi].Width() != gb[bi].Width() {
			t.Fatalf("batch %d shape = (%d,%d), want (%d,%d)",
				bi, gb[bi].Len(), gb[bi].Width(), wb[bi].Len(), wb[bi].Width())
		}
		for ci := 0; ci < wb[bi].Width(); ci++ {
			wc, gc := wb[bi].Cols[ci], gb[bi].Cols[ci]
			if wc.Kind() != gc.Kind() {
				t.Fatalf("batch %d col %d kind = %v, want %v", bi, ci, gc.Kind(), wc.Kind())
			}
			for i := 0; i < wb[bi].Len(); i++ {
				wv, gv := ValueAt(wc, i), ValueAt(gc, i)
				// NaN != NaN; compare bit patterns for floats.
				if wf, ok := wv.(float64); ok {
					if math.Float64bits(wf) != math.Float64bits(gv.(float64)) {
						t.Fatalf("batch %d col %d row %d = %v, want %v", bi, ci, i, gv, wv)
					}
					continue
				}
				if wv != gv {
					t.Fatalf("batch %d col %d row %d = %v, want %v", bi, ci, i, gv, wv)
				}
			}
		}
	}
}

func TestSegCodecRoundtrip(t *testing.T) {
	rel := segTestRel(t, 3, 100)
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRelation(body)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, rel, got)
}

func TestSegCodecRoundtripEdgeValues(t *testing.T) {
	// Extremes, sign flips and wraparound-inducing jumps: the
	// delta-of-delta subtractions overflow int64, which must cancel
	// exactly in the decoder's cumulative sums.
	rel := NewRelation()
	rel.Append(NewBatch(NewInt64Column([]int64{
		0, math.MaxInt64, math.MinInt64, -1, 1, math.MaxInt64, math.MaxInt64, 0,
	})))
	rel.Append(NewBatch(NewInt64Column([]int64{7}))) // single row
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRelation(body)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, rel, got)
}

func TestSegCodecConstantColumnCompresses(t *testing.T) {
	// A constant-period time column is the disk tier's common case; the
	// zero-run encoding must collapse it to a few bytes, not one byte
	// per row.
	n := 10_000
	times := make([]int64, n)
	for i := range times {
		times[i] = int64(i) * 20_000_000
	}
	rel := NewRelation()
	rel.Append(NewBatch(NewTimeColumn(times)))
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > 64 {
		t.Fatalf("constant-period column encoded to %d bytes, want < 64", len(body))
	}
	got, err := DecodeRelation(body)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, rel, got)
}

func TestSegCodecEmptyRelation(t *testing.T) {
	rel := NewRelation()
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRelation(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 0 {
		t.Fatalf("rows = %d", got.Rows())
	}
}

func TestSegCodecZoneSeeding(t *testing.T) {
	rel := segTestRel(t, 2, 50)
	// Force the zones to exist so the encoder embeds them.
	for bi := range rel.Batches() {
		rel.Zone(bi, 0)
	}
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRelation(body)
	if err != nil {
		t.Fatal(err)
	}
	base := ZoneComputations()
	for bi := range got.Batches() {
		wz, gz := rel.Zone(bi, 0), got.Zone(bi, 0)
		if gz != wz {
			t.Fatalf("batch %d zone = %+v, want %+v", bi, gz, wz)
		}
	}
	if n := ZoneComputations() - base; n != 0 {
		t.Fatalf("reading seeded zones recomputed %d zones, want 0", n)
	}
}

func TestSegCodecCorruptInputs(t *testing.T) {
	rel := segTestRel(t, 2, 40)
	body, err := EncodeRelation(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"garbage":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"truncated":   body[:len(body)/2],
		"trailing":    append(append([]byte{}, body...), 0xAA),
		"huge-counts": {0xff, 0xff, 0xff, 0xff, 0xff, 0x07},
	}
	for name, data := range cases {
		if _, err := DecodeRelation(data); err == nil {
			t.Fatalf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrSegCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrSegCorrupt", name, err)
		}
	}
	// Flip every byte in turn somewhere in the first stretch: whatever
	// the damage, decode must either fail cleanly or return a relation
	// — never panic.
	for i := 0; i < len(body) && i < 200; i++ {
		mut := append([]byte{}, body...)
		mut[i] ^= 0x5A
		_, _ = DecodeRelation(mut)
	}
}
