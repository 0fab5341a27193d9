package graphletrw

// Shared-walk multi-size benchmarks — the PR-8 fixture (CHANGES.md). They
// compare one MultiEstimator walk covering sizes {3,4,5} against the three
// independent single-size runs it replaces, on the same 1M-edge BA graph as
// the walk-kernel benchmarks (ba1mGraph).
//
// Two access regimes:
//
//   - Free: a direct in-memory GraphClient. Measures the pure compute
//     amortization (the walk itself is run once instead of three times; the
//     per-size window classification still happens per size).
//   - Crawl: Memo(Counting(Delayed(graph))) — the service's own client
//     stack for remote graphs. Every independent run gets a FRESH memo,
//     exactly as three separate service jobs would: each re-crawls the
//     walk's neighborhood from scratch, so the shared walk saves both
//     wall-clock and API calls (reported as the "apicalls" metric).
//
// The per-size estimates of the shared walk are byte-identical to the
// independent runs' (TestMultiMatchesSingle and the service-level fan-out
// tests pin this), so the comparison is like for like: same answers, one
// walk.

import (
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
)

const (
	multiBenchSteps   = 20_000
	multiBenchLatency = 25 * time.Microsecond // per uncached API call
	multiBenchSeed    = 7
)

var multiBenchSizes = []int{3, 4, 5}

func multiBenchConfig() core.MultiConfig {
	return core.MultiConfig{Sizes: multiBenchSizes, D: 2, CSS: true, Seed: multiBenchSeed}
}

func singleBenchConfig(k int) core.Config {
	return core.Config{K: k, D: 2, CSS: true, Seed: multiBenchSeed}
}

// crawlClient builds the service-style crawl stack over the BA fixture:
// the Counting layer sits under the memo, so it counts actual crawl fetches
// (memo hits are free), and Delayed charges latency to exactly those.
func crawlClient() (access.Client, *access.Counting) {
	g := ba1mGraph()
	counting := access.NewCounting(access.NewDelayed(access.NewGraphClient(g), multiBenchLatency), g.NumNodes())
	return access.NewMemo(counting), counting
}

func apiCalls(c *access.Counting) float64 {
	st := c.Stats()
	return float64(st.DegreeCalls + st.NeighborCalls + st.EdgeProbes)
}

func BenchmarkMultiSharedFree(b *testing.B) {
	client := access.NewGraphClient(ba1mGraph())
	cfg := multiBenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := core.NewMultiEstimator(client, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.Run(multiBenchSteps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiIndependentFree(b *testing.B) {
	client := access.NewGraphClient(ba1mGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range multiBenchSizes {
			est, err := core.NewEstimator(client, singleBenchConfig(k))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := est.Run(multiBenchSteps); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMultiSharedCrawl(b *testing.B) {
	cfg := multiBenchConfig()
	var calls float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, counting := crawlClient() // fresh memo per run, like a service job
		est, err := core.NewMultiEstimator(client, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := est.Run(multiBenchSteps); err != nil {
			b.Fatal(err)
		}
		calls += apiCalls(counting)
	}
	b.ReportMetric(calls/float64(b.N), "apicalls")
}

func BenchmarkMultiIndependentCrawl(b *testing.B) {
	var calls float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range multiBenchSizes {
			client, counting := crawlClient() // each independent job re-crawls
			est, err := core.NewEstimator(client, singleBenchConfig(k))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := est.Run(multiBenchSteps); err != nil {
				b.Fatal(err)
			}
			calls += apiCalls(counting)
		}
	}
	b.ReportMetric(calls/float64(b.N), "apicalls")
}
