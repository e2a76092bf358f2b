// Command benchrunner regenerates the paper's evaluation tables and
// figures outside the Go benchmark harness, with configurable scale.
//
// Usage:
//
//	benchrunner -exp all -work /tmp/sommelier-exp
//	benchrunner -exp fig7 -basedays 8 -samples 4000 -sf 1,3
//
// Experiments: tableII, tableIII, fig6, fig7, fig8, fig9, ablations,
// all. Flags: -exp, -work, -basedays, -samples, -sf. The service
// benchmark (sommelierd over HTTP, five workloads) is bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sommelier/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	work := flag.String("work", "", "working directory (default: temp)")
	baseDays := flag.Int("basedays", 4, "days per station at sf-1")
	samples := flag.Int("samples", 8000, "samples per chunk")
	sfs := flag.String("sf", "1,3,9,27", "scale factors")
	flag.Parse()

	dir := *work
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "sommelier-exp-")
		if err != nil {
			fatal(err)
		}
	}
	cfg := experiments.DefaultConfig(dir)
	cfg.BaseDays = *baseDays
	cfg.SamplesPerFile = *samples
	cfg.ScaleFactors = nil
	for _, s := range strings.Split(*sfs, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
			fatal(fmt.Errorf("bad scale factor %q", s))
		}
		cfg.ScaleFactors = append(cfg.ScaleFactors, n)
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	run("tableII", func() error {
		rows, err := experiments.TableII(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTableII(rows))
		return nil
	})
	run("tableIII", func() error {
		rows, err := experiments.TableIII(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTableIII(rows))
		return nil
	})
	run("fig6", func() error {
		rows, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig6(rows))
		return nil
	})
	run("fig7", func() error {
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig7(rows))
		return nil
	})
	run("fig8", func() error {
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig8(rows))
		return nil
	})
	run("fig9", func() error {
		rows, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig9(rows))
		return nil
	})
	run("ablations", func() error {
		par, err := experiments.AblationParallelLoad(cfg)
		if err != nil {
			return err
		}
		pol, err := experiments.AblationCachePolicy(cfg)
		if err != nil {
			return err
		}
		rules, err := experiments.AblationJoinRules(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAblations(par, pol, rules))
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
