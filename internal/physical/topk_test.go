package physical

// Differential tests for the bounded top-k operator: TopK must be
// row-for-row identical to Sort followed by Limit — including the
// order of key ties, which stability guarantees — on randomized
// inputs of many batches, for ascending and descending keys, multi-key
// orders, k larger than the input, and k = 0.

import (
	"math/rand"
	"testing"

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
