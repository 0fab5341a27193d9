package graphletrw

// Walk-kernel benchmarks on a 1M-edge Barabási–Albert graph — the PR-6
// fixture (CHANGES.md). The epinion StepSRW* benchmarks above track the
// historical trajectory; these isolate the G(d) neighbor kernel at the scale
// the ROADMAP's walk-kernel item targets (hub-heavy degree distribution,
// ~10 average degree, rows far larger than the d<=2 fast paths ever see).
//
// The fixture matches internal/graph's gcsr benchmark graph (same
// model/size/seed) so the per-step and load-path numbers recorded in
// CHANGES.md refer to one graph.

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	ba1mNodes  = 200_000
	ba1mAttach = 5 // ~1M edges
	ba1mSeed   = 1337
)

var ba1m struct {
	once sync.Once
	g    *graph.Graph
}

func ba1mGraph() *graph.Graph {
	ba1m.once.Do(func() { ba1m.g = gen.BarabasiAlbert(ba1mNodes, ba1mAttach, ba1mSeed) })
	return ba1m.g
}

func benchmarkWalkStepsBA(b *testing.B, cfg core.Config) {
	benchmarkWalkStepsOn(b, cfg, ba1mGraph())
}

func benchmarkWalkStepsOn(b *testing.B, cfg core.Config, g *graph.Graph) {
	b.Helper()
	client := access.NewGraphClient(g)
	cfg.Seed = 7
	est, err := core.NewEstimator(client, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := est.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// ba1mStore materializes the fixture graph in both .gcsr encodings (shared
// with internal/graph's bench fixture files) and opens path with open,
// pre-warming every neighbor row so the timed region measures the
// steady-state step cost, not first-touch page faults or block decodes.
func ba1mOpenWarm(b *testing.B, version int, open func(path string) (*graph.Graph, error)) *graph.Graph {
	b.Helper()
	dir := filepath.Join(os.TempDir(), "graphletrw-gcsr-bench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	name := "ba-1m.gcsr"
	if version == 2 {
		name = "ba-1m.v2.gcsr"
	}
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err != nil {
		if err := graph.SaveOpts(path, ba1mGraph(), graph.SaveOptions{Version: version}); err != nil {
			b.Fatal(err)
		}
	}
	g, err := open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		g.Neighbors(v)
	}
	return g
}

// The v1-mmap vs v2-block-cached step pair: the acceptance gate for the
// compressed store is the warm V2Cached step staying within 1.3x of V1Mmap
// at 0 allocs/op (CHANGES.md, PR 10).
func BenchmarkStepSRW3K4BA1MV1Mmap(b *testing.B) {
	g := ba1mOpenWarm(b, 1, graph.OpenMapped)
	benchmarkWalkStepsOn(b, core.Config{K: 4, D: 3}, g)
}

func BenchmarkStepSRW3K4BA1MV2Cached(b *testing.B) {
	g := ba1mOpenWarm(b, 2, func(path string) (*graph.Graph, error) {
		return graph.OpenMappedOpts(path, graph.OpenOptions{})
	})
	benchmarkWalkStepsOn(b, core.Config{K: 4, D: 3}, g)
}

func BenchmarkStepSRW3K4BA1M(b *testing.B) { benchmarkWalkStepsBA(b, core.Config{K: 4, D: 3}) }
func BenchmarkStepSRW3K5BA1M(b *testing.B) { benchmarkWalkStepsBA(b, core.Config{K: 5, D: 3}) }
func BenchmarkStepSRW4K5BA1M(b *testing.B) { benchmarkWalkStepsBA(b, core.Config{K: 5, D: 4}) }
func BenchmarkStepNBSRW3K4BA1M(b *testing.B) {
	benchmarkWalkStepsBA(b, core.Config{K: 4, D: 3, NB: true})
}
