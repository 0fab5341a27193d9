package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/access"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Fig7 reproduces Figure 7: count-estimation accuracy against the
// full-access state of the art at equal running time — (a) triangle counts:
// SRW1CSSNB vs wedge sampling [32] with 200K wedges; (b) 4-clique counts:
// SRW2CSS vs 3-path sampling [14] with 200K paths. The walk's step budget is
// calibrated so one walk trial costs the same wall time as one baseline
// trial (including the baseline's preprocessing, which is what sinks it on
// large graphs).
func Fig7(w io.Writer, p Params) {
	p = p.withDefaults()
	baselineSamples := p.Steps * 10 // paper: 200K samples vs 20K steps
	header(w, fmt.Sprintf("Figure 7: count estimation at equal running time (baseline samples=%d, trials=%d)", baselineSamples, p.Trials))

	fmt.Fprintln(w, "\n(a) triangle count: SRW1CSSNB vs wedge sampling")
	fmt.Fprintf(w, "%-12s %12s %12s %14s %10s\n", "dataset", "SRW1CSSNB", "Wedge", "walk steps", "c32")
	for _, d := range allDatasets() {
		g := d.Graph()
		truth, err := d.GroundTruth(3)
		if err != nil {
			panic(err)
		}
		truthTri := float64(truth[1])

		// Baseline: time one trial (preprocess + samples).
		start := time.Now()
		ws := baseline.NewWedgeSampler(g)
		ws.Sample(baselineSamples, rand.New(rand.NewSource(1)))
		perTrial := time.Since(start)

		wedgeEst := stats.RunTrials(p.Trials, func(trial int) []float64 {
			rng := rand.New(rand.NewSource(int64(31 * (trial + 1))))
			return []float64{baseline.NewWedgeSampler(g).Sample(baselineSamples, rng).TriangleCount()}
		})
		wedgeNRMSE := stats.NRMSEOfComponent(wedgeEst, []float64{truthTri}, 0)

		// Walk: calibrate steps to the same wall time. The calibration probe
		// runs with the configured walker ensemble, so parallel walkers buy a
		// proportionally larger step budget at equal wall time.
		cfg := p.apply(srw1CSSNB)
		steps := calibrateSteps(g, cfg, perTrial)
		twoR := core.TwoR(g, 1)
		walkEst := runCountTrials(g, cfg, steps, p.Trials, twoR, 1)
		walkNRMSE := stats.NRMSEOfComponent(walkEst, []float64{truthTri}, 0)

		fmt.Fprintf(w, "%-12s %12s %12s %14d %10s\n",
			d.Name, fmtF(walkNRMSE), fmtF(wedgeNRMSE), steps, fmtF(mustConc(d, 3)[1]))
	}
	fmt.Fprintln(w, "paper shape: Wedge wins only on the highest-c32 graphs; the walk wins elsewhere")

	fmt.Fprintln(w, "\n(b) 4-clique count: SRW2CSS vs 3-path sampling")
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "dataset", "SRW2CSS", "3-path", "walk steps")
	for _, d := range allDatasets() {
		g := d.Graph()
		truth, err := d.GroundTruth(4)
		if err != nil {
			panic(err)
		}
		truthK4 := float64(truth[5])
		if truthK4 == 0 {
			continue
		}
		start := time.Now()
		ps := baseline.NewPathSampler(g)
		ps.Sample(baselineSamples, rand.New(rand.NewSource(1)))
		perTrial := time.Since(start)

		pathEst := stats.RunTrials(p.Trials, func(trial int) []float64 {
			rng := rand.New(rand.NewSource(int64(37 * (trial + 1))))
			return []float64{baseline.NewPathSampler(g).Sample(baselineSamples, rng).Counts()[5]}
		})
		pathNRMSE := stats.NRMSEOfComponent(pathEst, []float64{truthK4}, 0)

		cfg := p.apply(core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true})
		steps := calibrateSteps(g, cfg, perTrial)
		twoR := core.TwoR(g, 2)
		walkEst := runCountTrials(g, cfg, steps, p.Trials, twoR, 5)
		walkNRMSE := stats.NRMSEOfComponent(walkEst, []float64{truthK4}, 0)

		fmt.Fprintf(w, "%-12s %12s %12s %14d\n", d.Name, fmtF(walkNRMSE), fmtF(pathNRMSE), steps)
	}
	fmt.Fprintln(w, "paper shape: 3-path competitive on small graphs, the walk wins on the largest")
}

func mustConc(d datasets.Dataset, k int) []float64 {
	c, err := d.Concentration(k)
	if err != nil {
		panic(err)
	}
	return c
}

// calibrateSteps measures the walk's per-step cost with a short probe and
// returns the step count fitting the time budget (bounded to a sane range).
func calibrateSteps(g *graph.Graph, cfg core.MultiConfig, budget time.Duration) int {
	const probe = 4000
	perStep := timedRun(g, cfg, 42, probe) / probe
	if perStep <= 0 {
		perStep = time.Nanosecond
	}
	steps := int(budget / perStep)
	if steps < 1000 {
		steps = 1000
	}
	if steps > 2_000_000 {
		steps = 2_000_000
	}
	return steps
}

// runCountTrials runs count-estimation trials (Equation 4) and returns the
// per-trial estimate of component idx.
func runCountTrials(g *graph.Graph, cfg core.MultiConfig, steps, trials int, twoR float64, idx int) [][]float64 {
	return replicas(g, cfg, trials, func(t int) int64 { return int64(104729*t + 7) }, func(est *core.MultiEstimator) []float64 {
		return []float64{mustRun(est, steps, cfg.Sizes[0]).Counts(twoR)[idx]}
	})
}

// srw1CSSNB is the triangle method Figures 7(a) and 8 race the baselines
// with.
var srw1CSSNB = core.MultiConfig{Sizes: []int{3}, D: 1, CSS: true, NB: true}

// Fig8 reproduces Figure 8: the triangle-concentration accuracy of
// SRW1CSSNB against the adapted wedge sampling Wedge-MHRW (Algorithm 4) at
// the same number of random-walk steps, plus convergence on the two largest
// stand-ins. Wedge-MHRW additionally pays ~3x the API cost per step.
func Fig8(w io.Writer, p Params) {
	p = p.withDefaults()
	header(w, fmt.Sprintf("Figure 8: SRW1CSSNB vs Wedge-MHRW (steps=%d, trials=%d)", p.Steps, p.Trials))
	fmt.Fprintf(w, "\n(a) accuracy\n%-12s %14s %14s\n", "dataset", "SRW1CSSNB", "Wedge-MHRW")
	for _, d := range allDatasets() {
		g := d.Graph()
		truth := mustConc(d, 3)
		walkNRMSE := methodNRMSE(g, p.apply(srw1CSSNB), p.Steps, p.Trials, truth, 1)
		mhrwTrials := mhrwTrials(g, p.Steps, p.Trials)
		mhrwNRMSE := stats.NRMSEOfComponent(mhrwTrials, truth, 1)
		fmt.Fprintf(w, "%-12s %14s %14s\n", d.Name, fmtF(walkNRMSE), fmtF(mhrwNRMSE))
	}

	fmt.Fprintln(w, "\n(b) convergence on the two largest stand-ins")
	for _, name := range []string{"twitter", "sinaweibo"} {
		d, err := datasets.Get(name)
		if err != nil {
			panic(err)
		}
		g := d.Graph()
		truth := mustConc(d, 3)
		every := p.Steps / 10
		if every == 0 {
			every = 1
		}
		fmt.Fprintf(w, "\n%s\n%-10s %14s %14s\n", name, "steps", "SRW1CSSNB", "Wedge-MHRW")
		walkPts := replicas(g, p.apply(srw1CSSNB), p.Trials, func(t int) int64 { return int64(7907*t + 3) }, func(est *core.MultiEstimator) []float64 {
			return trace(est, p.Steps, every, 3, 1)
		})
		client := access.NewGraphClient(g)
		mhrwPts := stats.RunTrials(p.Trials, func(trial int) []float64 {
			rng := rand.New(rand.NewSource(int64(7919*trial + 5)))
			mh := baseline.NewWedgeMHRW(client, rng)
			var pts []float64
			var agg baseline.MHRWResult
			for s := 0; s < p.Steps; s += every {
				r := mh.Run(every)
				agg.Open += r.Open
				agg.Closed += r.Closed
				pts = append(pts, agg.Concentration()[1])
			}
			return pts
		})
		walkSeries := stats.ConvergenceSeries(walkPts, truth[1])
		mhrwSeries := stats.ConvergenceSeries(mhrwPts, truth[1])
		for s := range walkSeries {
			fmt.Fprintf(w, "%-10d %14s %14s\n", (s+1)*every, fmtF(walkSeries[s]), fmtF(mhrwSeries[s]))
		}
	}
}

func mhrwTrials(g *graph.Graph, steps, trials int) [][]float64 {
	client := access.NewGraphClient(g)
	return stats.RunTrials(trials, func(trial int) []float64 {
		rng := rand.New(rand.NewSource(int64(6007*trial + 11)))
		return baseline.NewWedgeMHRW(client, rng).Run(steps).Concentration()
	})
}

// Table7 reproduces the paper's Table 7: the 4-node graphlet-kernel
// similarity of the Sinaweibo stand-in to the Facebook (social network) and
// Twitter (news medium) stand-ins, estimated by SRW2CSS and PSRW (= SRW3)
// against the exact value.
func Table7(w io.Writer, p Params) {
	p = p.withDefaults()
	trials := p.Trials / 2
	if trials < 4 {
		trials = 4
	}
	header(w, fmt.Sprintf("Table 7: similarity of sinaweibo to facebook / twitter (steps=%d, sims=%d)", p.Steps, trials))

	names := []string{"facebook", "twitter", "sinaweibo"}
	methods := []core.MultiConfig{{Sizes: []int{4}, D: 2, CSS: true}, {Sizes: []int{4}, D: 3}}
	est := map[string][][]float64{} // name -> method -> trials of concentration
	for _, name := range names {
		d, err := datasets.Get(name)
		if err != nil {
			panic(err)
		}
		g := d.Graph()
		for mi, m := range methods {
			key := fmt.Sprintf("%s-%d", name, mi)
			est[key] = methodTrials(g, p.apply(m), p.Steps, trials)
		}
	}
	exactConc := map[string][]float64{}
	for _, name := range names {
		d, _ := datasets.Get(name)
		exactConc[name] = mustConc(d, 4)
	}

	fmt.Fprintf(w, "%-10s %18s %18s %10s\n", "graph", "SRW2CSS", "PSRW(SRW3)", "Exact")
	for _, other := range []string{"facebook", "twitter"} {
		fmt.Fprintf(w, "%-10s", other)
		for mi := range methods {
			sims := make([]float64, trials)
			for t := 0; t < trials; t++ {
				sims[t] = kernel.Cosine(
					est[fmt.Sprintf("sinaweibo-%d", mi)][t],
					est[fmt.Sprintf("%s-%d", other, mi)][t],
				)
			}
			fmt.Fprintf(w, "   %.4f±%.4f", stats.Mean(sims), stats.StdDev(sims))
		}
		fmt.Fprintf(w, "%10.4f\n", kernel.Cosine(exactConc["sinaweibo"], exactConc[other]))
	}
	fmt.Fprintln(w, "\npaper shape: sinaweibo ~0.99 similar to twitter, ~0.58 to facebook")
}
