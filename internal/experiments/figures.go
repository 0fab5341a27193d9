package experiments

import (
	"fmt"
	"io"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graphlet"
	"repro/internal/stats"
)

// fig4Methods lists the method sets of Figure 4 per graphlet size.
var (
	fig4MethodsK3 = []core.Config{
		{K: 3, D: 1},
		{K: 3, D: 1, CSS: true},
		{K: 3, D: 1, CSS: true, NB: true},
		{K: 3, D: 2},
		{K: 3, D: 2, NB: true},
	}
	fig4MethodsK4 = []core.Config{
		{K: 4, D: 2},
		{K: 4, D: 2, CSS: true},
		{K: 4, D: 3},
	}
	fig4MethodsK5 = []core.Config{
		{K: 5, D: 2},
		{K: 5, D: 2, CSS: true},
		{K: 5, D: 3},
		{K: 5, D: 4},
	}
)

// Fig4 reproduces Figure 4: the NRMSE of the clique concentration estimates
// (triangle, 4-clique, 5-clique — the rarest and hardest types) for every
// method in the framework, at the paper's 20K-step budget.
func Fig4(w io.Writer, p Params) {
	p = p.withDefaults()
	header(w, fmt.Sprintf("Figure 4: NRMSE of concentration estimates (steps=%d, trials=%d)", p.Steps, p.Trials))

	fmt.Fprintln(w, "\n(a) triangle concentration c32 — all datasets")
	fig4Block(w, p, allDatasets(), fig4MethodsK3, 3, 1)

	fmt.Fprintln(w, "\n(b) 4-clique concentration c46 — all datasets")
	fig4Block(w, p, allDatasets(), fig4MethodsK4, 4, 5)

	fmt.Fprintln(w, "\n(c) 5-clique concentration c521 — small datasets (exact 5-node ground truth)")
	fig4Block(w, p, smallDatasets(), fig4MethodsK5, 5, 20)
}

func fig4Block(w io.Writer, p Params, ds []datasets.Dataset, methods []core.Config, k, idx int) {
	fmt.Fprintf(w, "%-12s", "dataset")
	for _, m := range methods {
		fmt.Fprintf(w, "%12s", m.MethodName())
	}
	fmt.Fprintln(w)
	for _, d := range ds {
		g := d.Graph()
		truth, err := d.Concentration(k)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%-12s", d.Name)
		for _, m := range methods {
			trials := p.Trials
			if m.D >= 4 {
				// The paper also reduces SRW4 repetitions (100 vs 1000).
				trials = max(3, p.Trials/10)
			}
			nrmse := methodNRMSE(g, p.apply(m), p.Steps, trials, truth, idx)
			fmt.Fprintf(w, "%12s", fmtF(nrmse))
		}
		fmt.Fprintln(w)
	}
}

// Fig5 reproduces Figure 5 on the Epinion stand-in: the weighted
// concentration α_i·C_i/Σ_j α_j·C_j of each 4-node graphlet under SRW2 and
// SRW3 versus the original concentration, and the per-type NRMSE that it
// explains (rare types with low weighted concentration estimate poorly).
func Fig5(w io.Writer, p Params) {
	p = p.withDefaults()
	d, err := datasets.Get("epinion")
	if err != nil {
		panic(err)
	}
	g := d.Graph()
	counts, err := d.GroundTruth(4)
	if err != nil {
		panic(err)
	}
	fcounts := make([]float64, len(counts))
	for i, c := range counts {
		fcounts[i] = float64(c)
	}
	truth, _ := d.Concentration(4)

	header(w, fmt.Sprintf("Figure 5: weighted concentration vs accuracy (epinion stand-in, steps=%d, trials=%d)", p.Steps, p.Trials))
	w2 := core.WeightedConcentration(4, 2, fcounts)
	w3 := core.WeightedConcentration(4, 3, fcounts)
	fmt.Fprintf(w, "\n(a) weighted concentration\n%-20s %12s %12s %12s\n", "graphlet", "original", "SRW2", "SRW3")
	for i, gl := range graphlet.Catalog(4) {
		fmt.Fprintf(w, "g4_%d %-15s %12s %12s %12s\n", gl.ID, gl.Name, fmtF(truth[i]), fmtF(w2[i]), fmtF(w3[i]))
	}

	fmt.Fprintf(w, "\n(b) NRMSE per graphlet type\n%-20s %12s %12s %12s\n", "graphlet", "SRW3", "SRW2", "SRW2CSS")
	methods := []core.Config{{K: 4, D: 3}, {K: 4, D: 2}, {K: 4, D: 2, CSS: true}}
	results := make([][]float64, len(methods))
	for mi, m := range methods {
		tr := methodTrials(g, p.apply(m), p.Steps, p.Trials)
		results[mi] = stats.NRMSEPerType(tr, truth)
	}
	for i, gl := range graphlet.Catalog(4) {
		fmt.Fprintf(w, "g4_%d %-15s %12s %12s %12s\n", gl.ID, gl.Name,
			fmtF(results[0][i]), fmtF(results[1][i]), fmtF(results[2][i]))
	}
}

// Fig6 reproduces Figure 6: convergence of the clique-concentration NRMSE as
// the sample size grows from Steps/10 to Steps, on the paper's representative
// dataset pairs.
func Fig6(w io.Writer, p Params) {
	p = p.withDefaults()
	header(w, fmt.Sprintf("Figure 6: convergence of the estimates (up to %d steps, trials=%d)", p.Steps, p.Trials))

	fmt.Fprintln(w, "\n(a) triangle — twitter & sinaweibo stand-ins")
	for _, name := range []string{"twitter", "sinaweibo"} {
		fig6Block(w, p, name, fig4MethodsK3, 3, 1)
	}
	fmt.Fprintln(w, "\n(b) 4-clique — pokec & flickr stand-ins")
	for _, name := range []string{"pokec", "flickr"} {
		fig6Block(w, p, name, fig4MethodsK4, 4, 5)
	}
	fmt.Fprintln(w, "\n(c) 5-clique — epinion & slashdot stand-ins")
	for _, name := range []string{"epinion", "slashdot"} {
		fig6Block(w, p, name, fig4MethodsK5, 5, 20)
	}
}

func fig6Block(w io.Writer, p Params, name string, methods []core.Config, k, idx int) {
	d, err := datasets.Get(name)
	if err != nil {
		panic(err)
	}
	g := d.Graph()
	truth, err := d.Concentration(k)
	if err != nil {
		panic(err)
	}
	every := p.Steps / 10
	if every == 0 {
		every = 1
	}
	client := access.NewGraphClient(g)

	fmt.Fprintf(w, "\n%s (truth %s)\n%-10s", name, fmtF(truth[idx]), "steps")
	for _, m := range methods {
		fmt.Fprintf(w, "%12s", m.MethodName())
	}
	fmt.Fprintln(w)
	series := make([][]float64, len(methods)) // [method][checkpoint] = NRMSE
	for mi, m := range methods {
		m := m
		trials := p.Trials
		if m.D >= 4 {
			trials = max(3, p.Trials/10)
		}
		points := stats.RunTrialsWorkers(trials, trialWorkers(p.Walkers), func(trial int) []float64 {
			cfg := p.apply(m)
			cfg.Seed = int64(7919*trial + 31*mi + 1)
			est, err := core.NewEstimator(client, cfg)
			if err != nil {
				panic(err)
			}
			var pts []float64
			if _, err := est.RunCheckpoints(p.Steps, every, func(step int, conc []float64) {
				pts = append(pts, conc[idx])
			}); err != nil {
				panic(err)
			}
			return pts
		})
		series[mi] = stats.ConvergenceSeries(points, truth[idx])
	}
	for s := 0; s < p.Steps/every; s++ {
		fmt.Fprintf(w, "%-10d", (s+1)*every)
		for mi := range methods {
			fmt.Fprintf(w, "%12s", fmtF(series[mi][s]))
		}
		fmt.Fprintln(w)
	}
}
