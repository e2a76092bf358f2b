package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResult(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// setupFloorS is the absolute worsening below which setup_s never counts
// as a regression: cold_archive sets up in 0.2 s, where one slow exec is
// a quarter of the value.
const setupFloorS = 0.05

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload, each end-to-end metric of b against
// a and its bound, then the per-layer metrics for information. It
// returns exit code 1 when any bound is exceeded or b's answers were
// wrong.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readResult(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return 2, err
	}
	if a.Envelope.Seed != b.Envelope.Seed || a.Envelope.WindowS != b.Envelope.WindowS {
		fmt.Fprintf(w, "note: seeds %d/%d and windows %gs/%gs differ\n",
			a.Envelope.Seed, b.Envelope.Seed, a.Envelope.WindowS, b.Envelope.WindowS)
	}
	exceeded := 0
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "== %s: only in %s\n", name, pathA)
			continue
		}
		fmt.Fprintf(w, "== %s\n", name)
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			if !wb.EndToEnd.Correct {
				fmt.Fprintf(w, "%-44s answers in %s were wrong\n", "", pathB)
				exceeded++
			}
			for _, d := range endToEnd {
				va, vb := wa.EndToEnd.Metrics[d.name], wb.EndToEnd.Metrics[d.name]
				worse := worsening(d, va, vb)
				verdict := "ok"
				if worse > d.bound && !(d.name == "setup_s" && vb-va < setupFloorS) {
					verdict = "EXCEEDS BOUND"
					exceeded++
				}
				fmt.Fprintf(w, "%-44s %12.6g -> %12.6g %-8s %+7.2f%% worse, bound %4.0f%%  %s\n",
					d.name, va, vb, d.unit, 100*worse, 100*d.bound, verdict)
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range perLayer {
				va, vb := wa.PerLayer.Metrics[d.name], wb.PerLayer.Metrics[d.name]
				fmt.Fprintf(w, "%-44s %12.6g -> %12.6g %-8s %+7.2f%% worse\n", d.name, va, vb, d.unit, 100*worsening(d, va, vb))
			}
		}
	}
	if exceeded > 0 {
		return 1, fmt.Errorf("%d end-to-end checks failed", exceeded)
	}
	return 0, nil
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
