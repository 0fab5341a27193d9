// Command experiments regenerates the paper's tables and figures on the
// synthetic stand-in datasets (see the repository README.md for the
// per-experiment index).
//
// Usage:
//
//	experiments [-steps N] [-trials N] [-walkers W] [table2|table3|table4|table5|fig4|fig5|fig6|table6|fig7|fig8|table7|all]
//
// Defaults follow the paper where practical: 20K walk steps; 200 independent
// simulations (the paper uses 1,000, and 100 for the slow SRW4 — this harness
// scales SRW4 down by 10x the same way).
//
// Stand-in dataset graphs are cached on disk in the .gcsr binary CSR format
// (under $REPRO_CACHE_DIR, like the ground-truth cache) and opened zero-copy
// via mmap on later runs, so repeated invocations skip the generators
// entirely.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	steps := flag.Int("steps", 20000, "random walk steps per run")
	trials := flag.Int("trials", 200, "independent simulations per method")
	walkers := flag.Int("walkers", 0, "concurrent walkers per run (0 = single walker)")
	flag.Usage = usage
	flag.Parse()

	p := experiments.Params{Steps: *steps, Trials: *trials, Walkers: *walkers}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}

	runners := map[string]func(){
		"table2": func() { experiments.Table2(os.Stdout) },
		"table3": func() { experiments.Table3(os.Stdout) },
		"table4": func() { experiments.Table4(os.Stdout) },
		"table5": func() { experiments.Table5(os.Stdout) },
		"fig4":   func() { experiments.Fig4(os.Stdout, p) },
		"fig5":   func() { experiments.Fig5(os.Stdout, p) },
		"fig6":   func() { experiments.Fig6(os.Stdout, p) },
		"table6": func() { experiments.Table6(os.Stdout, p) },
		"fig7":   func() { experiments.Fig7(os.Stdout, p) },
		"fig8":   func() { experiments.Fig8(os.Stdout, p) },
		"table7": func() { experiments.Table7(os.Stdout, p) },
	}
	order := []string{"table2", "table3", "table4", "table5", "fig4", "fig5", "fig6", "table6", "fig7", "fig8", "table7"}

	for _, a := range args {
		if a == "all" {
			for _, name := range order {
				timed(name, runners[name])
			}
			continue
		}
		run, ok := runners[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			usage()
			os.Exit(2)
		}
		timed(a, run)
	}
}

func timed(name string, fn func()) {
	start := time.Now()
	fn()
	fmt.Printf("\n[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments [-steps N] [-trials N] [-walkers W] <experiment>...

experiments:
  table2   alpha coefficients for 3,4-node graphlets
  table3   alpha coefficients for 5-node graphlets (with errata notes)
  table4   CSS sampling-probability closed forms
  table5   dataset inventory with exact clique concentrations
  fig4     NRMSE of concentration estimates, all methods
  fig5     weighted concentration vs accuracy (epinion)
  fig6     convergence of the estimates
  table6   running time of 20K steps vs exact enumeration
  fig7     count estimation vs wedge/path sampling at equal time
  fig8     SRW1CSSNB vs adapted wedge sampling (Wedge-MHRW)
  table7   graphlet-kernel similarity application
  all      everything above in order`)
	os.Exit(2)
}
