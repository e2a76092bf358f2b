package physical

// Differential tests for the bounded top-k operator: TopK must be
// row-for-row identical to Sort followed by Limit — including the
// order of key ties, which stability guarantees — on randomized
// inputs of many batches, for ascending and descending keys, multi-key
// orders, k larger than the input, and k = 0.

import (
	"math/rand"
	"testing"
	"time"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

// TestTopKMatchesSortLimit is the core differential against the
// operator pair the topk optimizer rule replaces, over 24 batches whose
// id key ties across every batch.
func TestTopKMatchesSortLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rel, names, kinds := diffRel(rng, 24, 256)
	empty := storage.NewRelation()
	keySets := [][]SortKey{
		{{Col: 1}},                       // ts asc
		{{Col: 2, Desc: true}},           // val desc
		{{Col: 3}, {Col: 2, Desc: true}}, // station asc, val desc
		{{Col: 0}, {Col: 1, Desc: true}}, // id asc (heavy ties), ts desc
		{{Col: 0}},                       // id alone: almost all ties
		{{Col: 3, Desc: true}, {Col: 0}}, // station desc, id asc
	}
	for _, r := range []*storage.Relation{rel, empty} {
		for ki, keys := range keySets {
			for _, n := range []int{0, 1, 7, 100, 1000, 10000} {
				srt, err := NewSort(mustScan(t, r, names, kinds), keys)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Collect(NewLimit(srt, n), DrainOpts{})
				if err != nil {
					t.Fatal(err)
				}
				tk, err := NewTopK(mustScan(t, r, names, kinds), keys, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Collect(tk, DrainOpts{})
				if err != nil {
					t.Fatal(err)
				}
				sameRelation(t, got, want, "topk keys#"+itoa(ki)+" n="+itoa(n))
			}
		}
	}
}

func mustScan(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind) Operator {
	t.Helper()
	s, err := NewRelScan(rel, names, kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestTopKRecyclesPooledInput feeds TopK from a predicated scan, whose
// batches carry pooled selection vectors: the candidate filter recycles
// every one, and the result, plain copied storage, equals Sort + Limit.
func TestTopKRecyclesPooledInput(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	rel, names, kinds := diffRel(rng, 16, 256)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-50))
	build := func() Operator {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	srt, err := NewSort(build(), []SortKey{{Col: 2, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(NewLimit(srt, 25), DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := NewTopK(build(), []SortKey{{Col: 2, Desc: true}}, 25)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(tk, DrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, got, want, "topk over selections")
}

// TestTopKBoundSkipsBatches: once the first batch fills the ranking,
// the scan below a profiled Filter and Project skips every later batch
// whose zone cannot beat the k-th key — descending and ascending, on a
// float and on a time key — and the answer still equals Sort + Limit.
func TestTopKBoundSkipsBatches(t *testing.T) {
	// Batch 0 holds keys 20..31, batches 1..7 hold 8..19, which
	// descending cannot use; negated for the ascending case.
	for _, desc := range []bool{true, false} {
		sign := 1
		if !desc {
			sign = -1
		}
		var data []byte
		for bi := range 8 {
			for i := range 12 {
				v := 20 + i
				if bi > 0 {
					v = 8 + i
				}
				data = append(data, byte(int8(4*sign*v)), 0) // topkKey: v·sign
			}
		}
		rels := topkRels(data, 12, 0, true)
		for _, key := range []int{2, 3} {
			build := func() (Operator, *RelScan) {
				s, err := NewMultiRelScan(rels, topkNames, topkKinds, nil)
				if err != nil {
					t.Fatal(err)
				}
				f, err := NewFilter(NewProfiled(s, time.Now()), expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)))
				if err != nil {
					t.Fatal(err)
				}
				p, err := NewProject(NewProfiled(f, time.Now()), []string{"k"}, []expr.Expr{expr.Col(topkNames[key])})
				if err != nil {
					t.Fatal(err)
				}
				return NewProfiled(p, time.Now()), s
			}
			keys := []SortKey{{Col: 0, Desc: desc}}
			in, scan := build()
			tk, err := NewTopK(in, keys, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(tk, DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if scan.Skipped() != 7 {
				t.Errorf("desc=%v key %d: scan skipped %d batches, want 7", desc, key, scan.Skipped())
			}
			ref, _ := build()
			srt, err := NewSort(ref, keys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(NewLimit(srt, 10), DrainOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, got, want, "bounded topk")
		}
	}
}
