package exec

import (
	"context"
	"testing"

	"sommelier/internal/plan"
	"sommelier/internal/seismic"
	"sommelier/internal/storage"
)

func sampledT4(station string, pct float64) *plan.Query {
	q := t4Query(station)
	q.SamplePct = pct
	return q
}

func TestSamplingReducesChunks(t *testing.T) {
	cat, loader := setupCatalog(t, 20) // 10 ISK chunks
	q := sampledT4("ISK", 40)
	p, err := compile(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.SamplePct != 40 {
		t.Fatalf("plan sample pct = %v", p.SamplePct)
	}
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(10 × 0.4) = 4 chunks.
	if res.Stats.ChunksSelected != 4 || res.Stats.ChunksLoaded != 4 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.SampleFraction != 0.4 {
		t.Fatalf("fraction = %v", res.Stats.SampleFraction)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	catA, loaderA := setupCatalog(t, 20)
	pA, _ := compile(catA, sampledT4("ISK", 30))
	resA, err := Execute(context.Background(), lazyEnv(catA, loaderA, 0), pA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	catB, loaderB := setupCatalog(t, 20)
	pB, _ := compile(catB, sampledT4("ISK", 30))
	resB, err := Execute(context.Background(), lazyEnv(catB, loaderB, 0), pB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := storage.Float64s(resA.Rel.Flatten().Cols[0])[0]
	b := storage.Float64s(resB.Rel.Flatten().Cols[0])[0]
	if a != b {
		t.Fatalf("sampling not deterministic: %v vs %v", a, b)
	}
}

func TestSamplingExactAnswerWithoutSample(t *testing.T) {
	cat, loader := setupCatalog(t, 10)
	p, _ := compile(cat, t4Query("ISK"))
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SampleFraction != 1 {
		t.Fatalf("exact query fraction = %v", res.Stats.SampleFraction)
	}
}

func TestSamplingAtLeastOneChunk(t *testing.T) {
	cat, loader := setupCatalog(t, 4) // 2 ISK chunks
	p, _ := compile(cat, sampledT4("ISK", 1))
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChunksSelected != 1 {
		t.Fatalf("selected = %d, want the 1-chunk floor", res.Stats.ChunksSelected)
	}
	if res.Rows() != 1 {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestSamplingSkipsMetadataOnlyQueries(t *testing.T) {
	cat, loader := setupCatalog(t, 6)
	q := &plan.Query{
		Select:    []plan.SelectItem{{Agg: plan.AggCount, Alias: "n"}},
		From:      seismic.TableF,
		SamplePct: 10,
	}
	p, err := compile(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), lazyEnv(cat, loader, 0), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Metadata queries are exact regardless of SAMPLE.
	if got := storage.Int64s(res.Rel.Flatten().Cols[0])[0]; got != 6 {
		t.Fatalf("count = %d", got)
	}
}

func TestSamplePctValidation(t *testing.T) {
	cat, _ := setupCatalog(t, 2)
	for _, pct := range []float64{-1, 101} {
		q := t4Query("ISK")
		q.SamplePct = pct
		if _, err := compile(cat, q); err == nil {
			t.Errorf("SamplePct %v accepted", pct)
		}
	}
	// 100 behaves as exact.
	q := t4Query("ISK")
	q.SamplePct = 100
	p, err := compile(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.SamplePct != 0 {
		t.Fatalf("SAMPLE 100 should compile to exact, got %v", p.SamplePct)
	}
}
