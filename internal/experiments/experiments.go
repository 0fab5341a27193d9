// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic stand-in datasets. Each experiment is a
// function writing a plain-text table to an io.Writer; cmd/experiments
// dispatches them, and the root bench_test.go wraps them as benchmarks.
//
// Absolute values differ from the paper (different graphs, scaled sizes, Go
// instead of C++), but each driver reproduces the experiment's *shape*: which
// method wins, by roughly what factor, and where crossovers happen.
// README.md indexes the experiments and how to run them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Params tunes experiment cost. The zero value gets defaults.
type Params struct {
	Steps  int // random-walk steps per run (paper: 20K)
	Trials int // independent simulations (paper: 1000, 100 for SRW4)
	// Walkers is the per-run walker ensemble size (core.MultiConfig.Walkers):
	// each trial's step budget is split across this many concurrent walks.
	// 0 keeps the single-walker behavior. Trials themselves always run on
	// the stats.RunTrials worker pool.
	Walkers int
}

// apply stamps the ensemble size onto a method configuration.
func (p Params) apply(cfg core.MultiConfig) core.MultiConfig {
	cfg.Walkers = p.Walkers
	return cfg
}

// trialWorkers sizes the trial pool so trials × walkers stays at the
// machine's parallelism: each trial spawns cfg.Walkers goroutines, and
// oversubscribing would make a trial's wall time incomparable to the same
// config run alone (which Fig7's time calibration depends on). The sizing
// rule is shared with the estimation service's job pool (stats.PoolWorkers).
func trialWorkers(walkers int) int {
	return stats.PoolWorkers(walkers)
}

func (p Params) withDefaults() Params {
	if p.Steps == 0 {
		p.Steps = 20000
	}
	if p.Trials == 0 {
		p.Trials = 200
	}
	return p
}

// Quick returns parameters small enough for smoke tests and benchmarks.
func Quick() Params { return Params{Steps: 2000, Trials: 8} }

// replicas is the one replica runner of every experiment: it runs n
// independent replicas of cfg over g on the trial pool, replica t with
// Seed = seed(t), and returns what row makes of each replica's fresh
// estimator, in replica order. Each experiment keeps its own seed formula.
func replicas(g *graph.Graph, cfg core.MultiConfig, n int, seed func(t int) int64, row func(*core.MultiEstimator) []float64) [][]float64 {
	client := access.NewGraphClient(g)
	return stats.RunTrialsWorkers(n, trialWorkers(cfg.Walkers), func(t int) []float64 {
		c := cfg
		c.Seed = seed(t)
		est, err := core.NewMultiEstimator(client, c)
		if err != nil {
			panic(err)
		}
		return row(est)
	})
}

// mustRun runs est for steps windows and returns size k's result.
func mustRun(est *core.MultiEstimator, steps, k int) *core.Result {
	res, err := est.Run(steps)
	if err != nil {
		panic(err)
	}
	return res.Results[k]
}

// trace runs est for steps windows with a checkpoint every `every` and
// returns component idx of size k's concentration at each checkpoint.
func trace(est *core.MultiEstimator, steps, every, k, idx int) []float64 {
	var pts []float64
	if _, err := est.RunCheckpointsCtx(context.Background(), steps, every, func(_ int, conc map[int][]float64) {
		pts = append(pts, conc[k][idx])
	}); err != nil {
		panic(err)
	}
	return pts
}

// timedRun is one replica of cfg under seed: the wall time of its steps
// windows, construction excluded.
func timedRun(g *graph.Graph, cfg core.MultiConfig, seed int64, steps int) time.Duration {
	var took time.Duration
	replicas(g, cfg, 1, func(int) int64 { return seed }, func(est *core.MultiEstimator) []float64 {
		start := time.Now()
		mustRun(est, steps, cfg.Sizes[0])
		took = time.Since(start)
		return nil
	})
	return took
}

// methodTrials runs `trials` independent walks of the one-size cfg on g and
// returns the per-trial concentration vectors.
func methodTrials(g *graph.Graph, cfg core.MultiConfig, steps, trials int) [][]float64 {
	return replicas(g, cfg, trials, func(t int) int64 { return int64(100003*t + 17) }, func(est *core.MultiEstimator) []float64 {
		return mustRun(est, steps, cfg.Sizes[0]).Concentration()
	})
}

// methodNRMSE runs trials and returns the NRMSE of component idx against
// truth.
func methodNRMSE(g *graph.Graph, cfg core.MultiConfig, steps, trials int, truth []float64, idx int) float64 {
	tr := methodTrials(g, cfg, steps, trials)
	return stats.NRMSEOfComponent(tr, truth, idx)
}

// fmtF renders a float compactly for tables.
func fmtF(x float64) string {
	switch {
	case math.IsNaN(x):
		return "-"
	case x == 0:
		return "0"
	case math.Abs(x) >= 1000 || math.Abs(x) < 0.001:
		return fmt.Sprintf("%.3e", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}

// header prints a section title.
func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

// smallDatasets returns the Exact5 datasets; allDatasets all ten.
func smallDatasets() []datasets.Dataset { return datasets.Small() }
func allDatasets() []datasets.Dataset   { return datasets.All() }
