package graphletrw

// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see README.md for the experiment index). The
// benchmarks run the corresponding experiment driver at a reduced budget so
// that `go test -bench=. -benchmem` regenerates every artifact in minutes;
// cmd/experiments runs the same drivers at paper-scale budgets.
//
// Per-method micro-benchmarks (cost of one walk step for each method) follow
// the experiment benchmarks; they quantify the per-step costs behind
// Table 6. BenchmarkParallelWalkers tracks the walker-ensemble scaling
// (ns/step and steps/sec at 1, 2, 4, 8 walkers) across PRs.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
)

func BenchmarkTable2Alpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard)
	}
}

func BenchmarkTable3Alpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

func BenchmarkTable4CSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(io.Discard)
	}
}

func BenchmarkTable5Exact(b *testing.B) {
	// Ground truth is disk-cached after the first run; the benchmark
	// measures the (cached) table generation. Delete the cache (or set
	// REPRO_CACHE_DIR) to measure full enumeration.
	for i := 0; i < b.N; i++ {
		experiments.Table5(io.Discard)
	}
}

// quickParams is small enough for the figure and table benchmarks.
var quickParams = experiments.Params{Steps: 2000, Trials: 8}

func BenchmarkFig4(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Fig4(io.Discard, p)
	}
}

func BenchmarkFig5(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, p)
	}
}

func BenchmarkFig6(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Fig6(io.Discard, p)
	}
}

func BenchmarkTable6Timing(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Table6(io.Discard, p)
	}
}

func BenchmarkFig7(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Fig7(io.Discard, p)
	}
}

func BenchmarkFig8(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Fig8(io.Discard, p)
	}
}

func BenchmarkTable7(b *testing.B) {
	p := quickParams
	for i := 0; i < b.N; i++ {
		experiments.Table7(io.Discard, p)
	}
}

// --- per-step micro-benchmarks (the costs behind Table 6) ---

func benchGraph() *graph.Graph {
	d, err := datasets.Get("epinion")
	if err != nil {
		panic(err)
	}
	return d.Graph()
}

func benchmarkWalkSteps(b *testing.B, cfg core.MultiConfig) {
	g := benchGraph()
	client := access.NewGraphClient(g)
	cfg.Seed = 7
	est, err := core.NewMultiEstimator(client, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := est.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkStepSRW1(b *testing.B) { benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{3}, D: 1}) }
func BenchmarkStepSRW1CSSNB(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{3}, D: 1, CSS: true, NB: true})
}
func BenchmarkStepSRW2K4(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{4}, D: 2})
}
func BenchmarkStepSRW2CSSK4(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true})
}
func BenchmarkStepSRW2K5(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{5}, D: 2})
}
func BenchmarkStepSRW2CSSK5(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{5}, D: 2, CSS: true})
}
func BenchmarkStepSRW3K4(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{4}, D: 3})
}
func BenchmarkStepSRW3K5(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{5}, D: 3})
}
func BenchmarkStepSRW4K5(b *testing.B) {
	benchmarkWalkSteps(b, core.MultiConfig{Sizes: []int{5}, D: 4})
}

// BenchmarkParallelWalkers runs a fixed total step budget through walker
// ensembles of growing size on the benchmark graph (K=4, D=2, CSS — the
// paper's recommended 4-node method) and reports ns/step and steps/sec.
// On multi-core hardware steps/sec should scale near-linearly until the
// core count; the BENCH_*.json trajectory tracks this across PRs.
func BenchmarkParallelWalkers(b *testing.B) {
	g := benchGraph()
	const totalSteps = 20000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("walkers=%d", w), func(b *testing.B) {
			client := access.NewGraphClient(g)
			cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 7, Walkers: w}
			est, err := core.NewMultiEstimator(client, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := est.Run(totalSteps); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			steps := float64(b.N) * totalSteps
			b.ReportMetric(float64(elapsed.Nanoseconds())/steps, "ns/step")
			b.ReportMetric(steps/elapsed.Seconds(), "steps/sec")
		})
	}
}

// --- baseline micro-benchmarks ---

func BenchmarkWedgeSample(b *testing.B) {
	g := benchGraph()
	s := baseline.NewWedgeSampler(g)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	s.Sample(b.N, rng)
}

func BenchmarkPathSample(b *testing.B) {
	g := benchGraph()
	s := baseline.NewPathSampler(g)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	s.Sample(b.N, rng)
}

func BenchmarkWedgeMHRWStep(b *testing.B) {
	g := benchGraph()
	client := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(1))
	mh := baseline.NewWedgeMHRW(client, rng)
	b.ResetTimer()
	mh.Run(b.N)
}

// --- exact counting benchmarks ---

func BenchmarkExactESU3(b *testing.B) { benchmarkESU(b, 3) }
func BenchmarkExactESU4(b *testing.B) { benchmarkESU(b, 4) }

func benchmarkESU(b *testing.B, k int) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.CountESU(g, k)
	}
}

func BenchmarkExactFourNodeFormulas(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.FourNodeCounts(g)
	}
}

// --- generator benchmark (dataset construction cost) ---

func BenchmarkGenHolmeKim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.HolmeKim(5000, 4, 0.5, int64(i))
	}
}

// Example-style smoke check that the benchmark harness wiring matches the
// experiment index in README.md.
func ExampleConfig() {
	cfg := Config{Sizes: []int{4}, D: 2, CSS: true}
	fmt.Println(cfg.MethodName())
	// Output: SRW2CSS
}
