// Package stats provides the evaluation machinery of §6: NRMSE over
// independent simulation runs (parallelized across CPUs) and convergence
// series over sample-size checkpoints.
package stats

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// NRMSE is the paper's accuracy metric:
// sqrt(E[(ĉ-c)²])/c — the root mean squared error of the estimates relative
// to the ground truth, combining variance and bias.
func NRMSE(estimates []float64, truth float64) float64 {
	if truth == 0 || len(estimates) == 0 {
		return math.NaN()
	}
	var sse float64
	for _, e := range estimates {
		d := e - truth
		sse += float64(d * d)
	}
	return math.Sqrt(sse/float64(len(estimates))) / truth
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics, without modifying xs. NaN for
// empty input. Used by the scheduler latency benchmarks (p50/p95 queue
// wait) and available to any metric aggregation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// PoolWorkers sizes a worker pool whose tasks are themselves parallel:
// it returns how many tasks may run concurrently so that
// tasks × perTask stays at the machine's parallelism (GOMAXPROCS), and at
// least one task always runs. perTask <= 1 means tasks are sequential
// inside, so the pool gets one worker per CPU. Both the experiment trial
// pool and the estimation service's job pool size themselves with it, so a
// walker-ensemble task never oversubscribes the machine and its wall time
// stays comparable to the same task run alone.
func PoolWorkers(perTask int) int {
	if perTask <= 1 {
		return runtime.GOMAXPROCS(0)
	}
	w := runtime.GOMAXPROCS(0) / perTask
	if w < 1 {
		w = 1
	}
	return w
}

// TrialFunc runs one independent simulation (seeded deterministically by the
// trial index) and returns an estimate vector.
type TrialFunc func(trial int) []float64

// RunTrials executes n independent trials on a worker pool (one worker per
// CPU) and returns the per-trial estimate vectors, ordered by trial index.
func RunTrials(n int, fn TrialFunc) [][]float64 {
	return RunTrialsWorkers(n, 0, fn)
}

// RunTrialsWorkers is RunTrials with an explicit pool size (<= 0 means
// GOMAXPROCS). Pass a reduced size when each trial is itself parallel —
// e.g. a core.MultiConfig.Walkers ensemble — so trials × walkers stays at the
// machine's parallelism and per-trial wall time matches a trial run alone.
func RunTrialsWorkers(n, workers int, fn TrialFunc) [][]float64 {
	out := make([][]float64, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				t := int(next)
				next++
				mu.Unlock()
				if t >= n {
					return
				}
				out[t] = fn(t)
			}
		}()
	}
	wg.Wait()
	return out
}

// NRMSEPerType computes the NRMSE of each vector component across trials.
// Components whose truth is zero yield NaN.
func NRMSEPerType(trials [][]float64, truth []float64) []float64 {
	out := make([]float64, len(truth))
	col := make([]float64, len(trials))
	for i := range truth {
		for t := range trials {
			col[t] = trials[t][i]
		}
		out[i] = NRMSE(col, truth[i])
	}
	return out
}

// NRMSEOfComponent computes the NRMSE of component i across trials.
func NRMSEOfComponent(trials [][]float64, truth []float64, i int) float64 {
	col := make([]float64, len(trials))
	for t := range trials {
		col[t] = trials[t][i]
	}
	return NRMSE(col, truth[i])
}

// ConvergenceSeries aggregates checkpointed trials: point[t][s] is the
// estimate of the tracked component at checkpoint s of trial t; the result
// is the NRMSE at each checkpoint.
func ConvergenceSeries(points [][]float64, truth float64) []float64 {
	if len(points) == 0 {
		return nil
	}
	nCheck := len(points[0])
	out := make([]float64, nCheck)
	col := make([]float64, len(points))
	for s := 0; s < nCheck; s++ {
		for t := range points {
			col[t] = points[t][s]
		}
		out[s] = NRMSE(col, truth)
	}
	return out
}
