package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/exact"
	"repro/internal/graph"
)

// Table6 reproduces the paper's Table 6: the wall-clock time of performing
// the walk-step budget with each method when estimating 5-node graphlet
// concentration, against exact enumeration. The absolute numbers are
// machine-specific; the reproduced shape is the ordering
// SRW2 << SRW2CSS < SRW3 << SRW4 << Exact (SRW3CSS is omitted like in the
// paper: its state-degree oracle is prohibitively slow).
func Table6(w io.Writer, p Params) {
	table6(w, p, datasets.Dataset.Graph)
}

// table6 prints the report over graphOf's graph for each small dataset. The
// tier-1 test substitutes small generated graphs, so the Exact column (ESU at
// k=5, minutes on the stand-ins) fits the test budget through the same code.
func table6(w io.Writer, p Params, graphOf func(datasets.Dataset) *graph.Graph) {
	p = p.withDefaults()
	header(w, fmt.Sprintf("Table 6: running time of %d random walk steps (k=5)", p.Steps))
	methods := []core.Config{
		{K: 5, D: 2},
		{K: 5, D: 2, CSS: true},
		{K: 5, D: 3},
		{K: 5, D: 4},
	}
	fmt.Fprintf(w, "%-12s", "dataset")
	for _, m := range methods {
		fmt.Fprintf(w, "%14s", m.MethodName())
	}
	fmt.Fprintf(w, "%14s\n", "Exact")
	for _, d := range smallDatasets() {
		g := graphOf(d)
		client := access.NewGraphClient(g)
		fmt.Fprintf(w, "%-12s", d.Name)
		for _, m := range methods {
			cfg := p.apply(m)
			cfg.Seed = 12345
			est, err := core.NewEstimator(client, cfg)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			if _, err := est.Run(p.Steps); err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "%14s", time.Since(start).Round(time.Microsecond*100).String())
		}
		start := time.Now()
		exact.CountESU(g, 5)
		fmt.Fprintf(w, "%14s\n", time.Since(start).Round(time.Millisecond).String())
	}
	fmt.Fprintln(w, "\npaper shape: SRW2 ~20ms, SRW2CSS ~3-6x SRW2, SRW3 ~10-25x SRW2,")
	fmt.Fprintln(w, "SRW4 ~1000x SRW2, Exact orders of magnitude beyond")
}
