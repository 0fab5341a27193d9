package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/exact"
)

func TestWalkerQuota(t *testing.T) {
	for _, tc := range []struct{ total, w int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {7, 8}, {1000, 8}, {999, 7},
	} {
		sum := 0
		for i := 0; i < tc.w; i++ {
			q := walkerQuota(tc.total, tc.w, i)
			if q < 0 {
				t.Fatalf("negative quota(%d,%d,%d)", tc.total, tc.w, i)
			}
			sum += q
		}
		if sum != tc.total {
			t.Errorf("quotas for total=%d w=%d sum to %d", tc.total, tc.w, sum)
		}
		// Monotone in total: checkpointed runs advance by quota differences.
		for i := 0; i < tc.w; i++ {
			if walkerQuota(tc.total+1, tc.w, i) < walkerQuota(tc.total, tc.w, i) {
				t.Errorf("quota not monotone at total=%d w=%d i=%d", tc.total, tc.w, i)
			}
		}
	}
}

func TestWalkerSeedDerivation(t *testing.T) {
	if walkerSeed(42, 0) != 42 {
		t.Error("walker 0 must keep the configured seed (single-walker compatibility)")
	}
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := walkerSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at walker %d", i)
		}
		seen[s] = true
	}
	if walkerSeed(42, 1) == walkerSeed(43, 1) {
		t.Error("adjacent base seeds must give distinct walker streams")
	}
}

// TestMergeMatchesIndependentRuns is the exactness proof of the merge layer:
// an ensemble run with W walkers must equal — bit for bit — W separate
// single-walker runs with the derived seeds and quota budgets, merged in
// walker-index order. The RecoverStars case checks the nonlinear clamp is
// applied to the merged sums, not per walker.
func TestMergeMatchesIndependentRuns(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	const n, W = 6000, 4
	for _, cfg := range []MultiConfig{
		{Sizes: []int{4}, D: 2, CSS: true, Seed: 99, Walkers: W},
		{Sizes: []int{4}, D: 1, RecoverStars: true, Seed: 31, Walkers: W},
	} {
		merged := runSize(t, client, cfg, n)
		want := &Result{
			Config:     merged.Config,
			Weights:    make([]float64, len(merged.Weights)),
			TypeCounts: make([]int64, len(merged.TypeCounts)),
		}
		for i := 0; i < W; i++ {
			single := cfg
			single.Walkers = 1
			single.Seed = walkerSeed(cfg.Seed, i)
			want.Merge(runSize(t, client, single, walkerQuota(n, W, i)))
		}
		if merged.Steps != n || want.Steps != n {
			t.Fatalf("%s: steps: merged %d, manual %d, want %d", cfg.MethodName(), merged.Steps, want.Steps, n)
		}
		if merged.ValidSamples != want.ValidSamples {
			t.Fatalf("%s: valid samples: merged %d, manual %d", cfg.MethodName(), merged.ValidSamples, want.ValidSamples)
		}
		if !reflect.DeepEqual(merged.Weights, want.Weights) {
			t.Errorf("%s: weights differ:\nmerged %v\nmanual %v", cfg.MethodName(), merged.Weights, want.Weights)
		}
		if !reflect.DeepEqual(merged.TypeCounts, want.TypeCounts) {
			t.Errorf("%s: type counts differ:\nmerged %v\nmanual %v", cfg.MethodName(), merged.TypeCounts, want.TypeCounts)
		}
	}
}

// TestParallelDeterminismAcrossGOMAXPROCS: same Config (including Walkers)
// and Seed must produce byte-identical merged Results no matter how the
// goroutines are scheduled.
func TestParallelDeterminismAcrossGOMAXPROCS(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{4}, D: 2, CSS: true, NB: true, Seed: 7, Walkers: 8}

	var ref *Result
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			res := runSize(t, client, cfg, 4000)
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("GOMAXPROCS=%d rep=%d: merged result differs from reference", procs, rep)
			}
		}
	}
}

// TestMultiParallelDeterminism covers the multi-size ensemble the same way.
func TestMultiParallelDeterminism(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{3, 4}, D: 2, CSS: true, Seed: 5, Walkers: 3}
	var ref *MultiResult
	for rep := 0; rep < 3; rep++ {
		me, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := me.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("rep %d: multi result differs", rep)
		}
	}
	if ref.Steps != 3000 {
		t.Errorf("merged multi steps %d, want 3000", ref.Steps)
	}
}

// TestParallelCheckpoints: merged snapshots fire at the global window counts
// and are themselves deterministic.
func TestParallelCheckpoints(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{3}, D: 1, Seed: 23, Walkers: 4}
	run := func() ([]int, [][]float64) {
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var steps []int
		var concs [][]float64
		if _, err := est.RunCheckpointsCtx(t.Context(), 1000, 250, func(step int, conc map[int][]float64) {
			steps = append(steps, step)
			concs = append(concs, conc[3])
		}); err != nil {
			t.Fatal(err)
		}
		return steps, concs
	}
	steps, concs := run()
	want := []int{250, 500, 750, 1000}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("checkpoints at %v, want %v", steps, want)
	}
	steps2, concs2 := run()
	if !reflect.DeepEqual(steps2, steps) || !reflect.DeepEqual(concs2, concs) {
		t.Fatal("checkpoint snapshots are not deterministic")
	}
}

// TestParallelSharedCountingClient drives >= 4 walkers over one shared
// Counting client (run with -race): the atomic counters must be exact — the
// schedule-independent sum of each walker's deterministic call pattern.
func TestParallelSharedCountingClient(t *testing.T) {
	g := convGraph()
	counting := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	cfg := MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 3, Walkers: 4}
	run := func() (access.Stats, *Result) {
		counting.Reset()
		res := runSize(t, counting, cfg, 4000)
		return counting.Stats(), res
	}
	st1, res1 := run()
	st2, res2 := run()
	if st1 != st2 {
		t.Errorf("API counters not exact under 4 walkers:\nrun1 %+v\nrun2 %+v", st1, st2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Error("merged results differ across identical runs")
	}
	if st1.NeighborCalls == 0 || st1.UniqueNodes == 0 {
		t.Errorf("no accounting recorded: %+v", st1)
	}
}

// TestParallelConvergence: a merged 8-walker estimate converges to the exact
// concentration like a single long walk does (the estimator stays unbiased
// under the split).
func TestParallelConvergence(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	res := runSize(t, client, MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 11, Walkers: 8}, 400000)
	want := exact.Concentrations(exact.CountESU(g, 4))
	got := res.Concentration()
	if re := maxRelErr(got, want); re > 0.10 {
		t.Errorf("8-walker merged estimate: max rel err %.3f > 0.10\n got %v\nwant %v", re, got, want)
	}
}

// TestParallelSpeedupLatencyBound verifies the wall-clock payoff on the
// workload the paper actually targets — crawling an API where every call has
// latency. Walkers blocked on (simulated) I/O overlap even on one CPU, so a
// fixed total step budget must finish several times faster with 8 walkers
// than with 1. (CPU-bound scaling across cores is tracked separately by
// BenchmarkParallelWalkers at the repository root.)
func TestParallelSpeedupLatencyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := convGraph()
	const latency = 100 * time.Microsecond
	const steps = 480
	elapsed := func(walkers int) time.Duration {
		client := access.NewDelayed(access.NewGraphClient(g), latency)
		est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 9, Walkers: walkers})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := est.Run(steps); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	parallel := elapsed(8)
	ratio := float64(serial) / float64(parallel)
	t.Logf("latency-bound: 1 walker %v, 8 walkers %v (%.1fx)", serial, parallel, ratio)
	if ratio < 3 {
		t.Errorf("8 walkers only %.2fx faster than 1 on a latency-bound crawl (want >= 3x)", ratio)
	}
	if math.IsNaN(ratio) {
		t.Fatal("timing produced NaN")
	}
}
