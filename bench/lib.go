package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/loadgen"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

// methodConfig maps a method name of the metric lists onto the estimator
// configuration it stands for (multi345_d2css is the multi-size one and is
// handled where it is used).
func methodConfig(name string) core.Config {
	switch name {
	case "srw1_k3":
		return core.Config{K: 3, D: 1}
	case "srw1cssnb_k3":
		return core.Config{K: 3, D: 1, CSS: true, NB: true}
	case "srw2_k4":
		return core.Config{K: 4, D: 2}
	case "srw2css_k4":
		return core.Config{K: 4, D: 2, CSS: true}
	case "srw2css_k5":
		return core.Config{K: 5, D: 2, CSS: true}
	case "srw3_k4":
		return core.Config{K: 4, D: 3}
	case "srw3nb_k5":
		return core.Config{K: 5, D: 3, NB: true}
	}
	panic("bench: unknown method " + name)
}

// referenceType picks the graphlet a method's accuracy is scored on: the
// triangle for k = 3, and for k = 4 the highest-index type whose exact
// concentration is at least 1e-3 — rare enough to be hard, common enough
// that 20k steps see it.
func referenceType(k int, exact []float64) int {
	if k == 3 {
		return 1
	}
	for i := len(exact) - 1; i >= 0; i-- {
		if exact[i] >= 1e-3 {
			return i
		}
	}
	return 0
}

const (
	replicaSteps = 20_000
	// biasSigmas bounds how far a method's mean estimate may sit from the
	// exact value, in standard errors of that mean, before the run counts as
	// wrong. Seeds are fixed per -seed, so a pass repeats; the width only has
	// to clear honest sampling noise across seeds.
	biasSigmas = 6
)

// libReplicas is the no-daemon workload: the paper's own experiment. Each
// "job" is one seeded replica — build an estimator, run replicaSteps windows
// — and the methods are scored by NRMSE against exact enumeration.
func libReplicas(ctx context.Context, e *env) (*result, error) {
	var tr truth
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		tr = buildTruth()
		setups = append(setups, time.Since(start).Seconds())
	}
	res := &result{Workload: "lib_replicas", Traced: e.trace, EndToEnd: values{}, PerLayer: values{}}
	res.PerLayer["gen.fixture_ms"], res.PerLayer["exact.truth_ms"] = tr.genMs, tr.exactMs

	share := 1.0
	if e.trace {
		share = tracedShare
	}
	replicas := max(int(200*e.scale*share+0.5), 10)
	rng := rand.New(rand.NewSource(e.seed))
	type task struct {
		method int
		seed   int64
	}
	// Replica-major order: both goroutines work through all five methods all
	// the time, so the mix of cheap and dear methods in flight is the same
	// from start to end.
	tasks := make([]task, 0, replicas*len(replicaMethods))
	for rep := 0; rep < replicas; rep++ {
		for m := range replicaMethods {
			tasks = append(tasks, task{m, rng.Int63()})
		}
	}
	estimates := make([]float64, len(tasks))
	type timing struct{ start, built, end time.Time }
	timings := make([]timing, len(tasks))
	refs := make([]int, len(replicaMethods))
	for m, name := range replicaMethods {
		k := methodConfig(name).K
		refs[m] = referenceType(k, tr.conc[k])
	}
	client := access.NewGraphClient(tr.g)
	before := selfUsage()
	start := time.Now()
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				cfg := methodConfig(replicaMethods[tasks[i].method])
				cfg.Seed = tasks[i].seed
				t0 := time.Now()
				est, err := core.NewEstimator(client, cfg)
				t1 := time.Now()
				if err == nil {
					var r *core.Result
					if r, err = est.Run(replicaSteps); err == nil {
						estimates[i] = r.Concentration()[refs[tasks[i].method]]
					}
				}
				if err != nil {
					failed.Add(1)
				}
				timings[i] = timing{t0, t1, time.Now()}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after := selfUsage()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = len(tasks), int(failed.Load())
	res.Phases = []phase{{Name: "replicas", Sent: len(tasks), Succeeded: len(tasks) - res.Failed, Failed: res.Failed}}
	latency := make([]float64, len(timings))
	for i, t := range timings {
		latency[i] = ms(t.end.Sub(t.start))
	}
	var nrmseSum float64
	for m, name := range replicaMethods {
		var est []float64
		for i, t := range tasks {
			if t.method == m {
				est = append(est, estimates[i])
			}
		}
		exact := tr.conc[methodConfig(name).K][refs[m]]
		nrmse := stats.NRMSE(est, exact)
		res.PerLayer["core.nrmse."+name] = nrmse
		nrmseSum += nrmse
		// The estimator is asymptotically unbiased; a mean this far from the
		// truth means a wrong estimator, not an unlucky seed.
		res.Verified++
		se := stats.StdDev(est) / math.Sqrt(float64(len(est)))
		if bias := math.Abs(stats.Mean(est) - exact); !(bias <= biasSigmas*se) {
			res.Wrong++
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("%s: mean estimate %.6g is %.1f standard errors from the exact %.6g",
				name, stats.Mean(est), bias/se, exact))
		}
	}
	ee := res.EndToEnd
	ee["setup_s"] = stats.Quantile(setups, 0.5)
	ee["job_latency_p50_ms"] = stats.Quantile(latency, 0.5)
	ee["steps_per_s"] = float64(len(tasks)*replicaSteps) / wall.Seconds()
	ee["sut_cpu_s"] = after.cpuSeconds - before.cpuSeconds
	ee["peak_rss_mb"] = after.maxRSSMB
	ee["accuracy_nrmse"] = nrmseSum / float64(len(replicaMethods))
	tail, pct := loadgen.Tail(latency)
	res.PerLayer["client.jobs"] = float64(len(latency))
	res.PerLayer["client.job_latency_tail_ms"], res.PerLayer["client.job_latency_tail_pct"] = tail, float64(pct)

	if e.trace {
		var spans []loadgen.Span
		var self, total time.Duration
		for i, t := range timings {
			id := fmt.Sprintf("lib_replicas-%d-%d", e.seed, i)
			root := loadgen.Span{RequestID: id, Name: "job", Start: t.start, End: t.end}
			kids := []loadgen.Span{
				{RequestID: id, Name: "core.new_estimator", Parent: "job", Start: t.start, End: t.built},
				{RequestID: id, Name: "core.run", Parent: "job", Start: t.built, End: t.end},
			}
			self += loadgen.SelfTime(root, kids)
			total += root.Duration()
			spans = append(append(spans, root), kids...)
		}
		res.PerLayer["trace.residual_share"] = ratio(float64(self), float64(total))
		res.PerLayer.merge(runProbes(e, gen.BarabasiAlbert(baNodes, baAttach, baSeed)))
		if err := writeTrace(e, res, spans, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}
