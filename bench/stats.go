package main

import (
	"fmt"
	"math"
	"sort"
)

// fullFloor is the sample floor of a real window: what p95 needs to keep
// ten samples beyond it. A tail estimate resting on fewer is one slow
// request away from a different answer.
const fullFloor = 200

// percentile is the nearest-rank p-quantile (0 < p < 1) of ascending
// values. It refuses when fewer than `beyond` samples lie past it.
func percentile(sorted []float64, p float64, beyond int) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("p%g refused: %d samples leave %d beyond it, need %d", p*100, n, n-rank, beyond)
	}
	return sorted[rank-1], nil
}

// median is the p50 without the tail rule (nothing needs to lie beyond
// a centre); zero for an empty set, so absent classes read as 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// latencySummary is what one measured window reports about request
// latency. P99 is NaN when the window is too short to support it.
type latencySummary struct {
	N             int
	P50, P95, P99 float64
}

// summarize applies the sample-count rule: a window with fewer than
// floor samples fails, and a percentile is reported only with floor/20
// samples beyond it: ten at fullFloor, fewer only where the smoke test
// lowers the floor.
func summarize(ms []float64, floor int) (latencySummary, error) {
	beyond := floor / 20
	if len(ms) < floor {
		return latencySummary{}, fmt.Errorf("window yielded %d samples, floor is %d", len(ms), floor)
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: s[(len(s)-1)/2], P99: math.NaN()}
	var err error
	if out.P95, err = percentile(s, 0.95, beyond); err != nil {
		return latencySummary{}, err
	}
	if p99, err := percentile(s, 0.99, beyond); err == nil {
		out.P99 = p99
	}
	return out, nil
}
