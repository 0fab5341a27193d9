// Package graphletrw is the public API of this repository: a from-scratch Go
// implementation of "A General Framework for Estimating Graphlet Statistics
// via Random Walk" (Chen, Li, Wang, Lui — VLDB 2016, arXiv:1603.07504).
//
// The framework estimates the concentration of k-node graphlets (k = 3, 4, 5)
// of a graph that can only be crawled through an API, by re-weighting samples
// collected from l = k-d+1 consecutive steps of a random walk on the d-node
// subgraph relationship graph G(d). The walk order d is the framework's
// tuning knob: d = k-1 recovers PSRW, d = k recovers SRW-on-G(k), and small d
// (the paper's recommendation: d = 1 for 3-node graphlets, d = 2 for 4- and
// 5-node) is both faster and more accurate. Two optimizations — corresponding
// state sampling (CSS) and the non-backtracking walk (NB) — further reduce
// error. One walk on G(d) serves every size k >= d at once (the MSS idea of
// [36] the paper generalizes), so a Config names the sizes it estimates.
//
// Quick start:
//
//	g, _ := graphletrw.LoadGraph("graph.txt")         // or build one
//	client := graphletrw.NewClient(g)                  // restricted access
//	res, _ := graphletrw.Estimate(client, graphletrw.Config{
//		Sizes: []int{4}, D: 2, CSS: true, Seed: 1, Walkers: 8,
//	}, 20000)
//	fmt.Println(res.Results[4].Concentration())        // ĉ⁴ per type
//
// Estimation runs on a layered engine: a Config.Walkers-sized ensemble of
// independent walkers splits the step budget, runs concurrently over the
// shared (concurrency-safe) client, and merges the unbiased per-walker
// accumulators by summation (Result.Merge) — deterministically, so equal
// Config and Seed reproduce byte-identical results at any GOMAXPROCS.
//
// See the examples directory for runnable programs and README.md for the
// package layout and the index of every reproduced table and figure.
package graphletrw

import (
	"io"
	"math/rand"

	"repro/internal/access"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Graph is an immutable undirected simple graph with sorted adjacency.
type Graph = graph.Graph

// Builder accumulates edges into a Graph.
type Builder = graph.Builder

// Client is the restricted-access crawl interface used by all walks.
type Client = access.Client

// CountingClient wraps a Client with API-call accounting.
type CountingClient = access.Counting

// Config selects a method within the framework (walk order, CSS, NB), the
// graphlet sizes it estimates from one shared walk, and the run's ensemble
// and seed.
type Config = core.MultiConfig

// Result holds one size's outcome of an estimation run.
type Result = core.Result

// MultiResult maps each estimated size to its Result.
type MultiResult = core.MultiResult

// Graphlet describes one of the catalog's subgraph patterns.
type Graphlet = graphlet.Graphlet

// NewBuilder returns a Builder for a graph with at least n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadGraph reads a whitespace-separated edge list from a file and returns
// its graph (node IDs compacted; comments with '#'/'%' skipped).
func LoadGraph(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// ReadGraph parses an edge list from a reader.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// SaveGraph writes g to path in the .gcsr binary CSR format (magic/version
// header, checksummed little-endian off/adj arrays). Packed graphs load in
// milliseconds via OpenGraph — zero-copy mmap'd where the platform allows —
// instead of re-parsing an edge list; cmd/graphlet-pack is the CLI wrapper.
func SaveGraph(path string, g *Graph) error { return graph.Save(path, g) }

// OpenGraph opens a graph file, detecting its encoding by extension, then
// magic bytes: a .gcsr binary CSR file (opened zero-copy via mmap where
// available) or a text edge list ("u v" lines). Call Close on the returned
// graph when done with an mmap-backed one.
func OpenGraph(path string) (*Graph, error) { return graph.Open(path, graph.OpenOptions{}) }

// OpenLCC is OpenGraph followed by LargestComponent — the paper's
// preprocessing, and what every command in cmd/ estimates over. A connected
// packed graph stays served from its mapping; the mapping of a disconnected
// one is released once its component is rebuilt on the heap.
func OpenLCC(path string) (*Graph, error) { return graph.OpenLCC(path, graph.OpenOptions{}) }

// LargestComponent extracts the largest connected component, as the paper's
// preprocessing does; the second result maps new node IDs to old ones.
func LargestComponent(g *Graph) (*Graph, []int32) { return graph.LargestComponent(g) }

// NewClient exposes an in-memory graph through the restricted-access
// interface.
func NewClient(g *Graph) Client { return access.NewGraphClient(g) }

// NewCountingClient wraps a client with API-call accounting; numNodes sizes
// the unique-node tracking.
func NewCountingClient(c Client, numNodes int) *CountingClient {
	return access.NewCounting(c, numNodes)
}

// MemoClient is a concurrency-safe memoizing neighbor-cache decorator: an
// ensemble of parallel walkers sharing one MemoClient fetches each
// neighborhood from the inner client exactly once (per-node single flight).
type MemoClient = access.Memo

// NewMemoClient wraps c with the shared memoizing neighbor cache. Use it
// when running Config.Walkers > 1 over an expensive boundary (the HTTP crawl
// client, a latency-modeling wrapper) so concurrent walkers never re-fetch a
// neighbor list.
func NewMemoClient(c Client) *MemoClient { return access.NewMemo(c) }

// NewEstimator builds a reusable estimator for the given method and sizes;
// it can also checkpoint, snapshot and restore a run.
func NewEstimator(c Client, cfg Config) (*core.MultiEstimator, error) {
	return core.NewMultiEstimator(c, cfg)
}

// Estimate runs the framework for the given number of random-walk steps and
// returns the concentration estimates of every size in cfg.Sizes from one
// shared walk on G(d) — one crawl budget, all sizes (paper Algorithm 1 with
// the Config's optimizations).
func Estimate(c Client, cfg Config, steps int) (*MultiResult, error) {
	est, err := core.NewMultiEstimator(c, cfg)
	if err != nil {
		return nil, err
	}
	return est.Run(steps)
}

// Catalog returns all k-node graphlets in paper order (k = 3, 4, 5).
func Catalog(k int) []Graphlet { return graphlet.Catalog(k) }

// Alpha returns the state-corresponding coefficient α^k_id for SRW(d).
func Alpha(k, d, id int) int64 { return graphlet.Alpha(k, d, id) }

// ExactCounts enumerates the exact k-node graphlet counts of an in-memory
// graph (ESU, parallel).
func ExactCounts(g *Graph, k int) []int64 { return exact.CountESU(g, k) }

// ExactConcentration returns the exact concentration vector of size-k
// graphlets.
func ExactConcentration(g *Graph, k int) []float64 {
	return exact.Concentrations(ExactCounts(g, k))
}

// ClusteringCoefficient returns the exact global clustering coefficient
// 3C₂/(C₁+3C₂).
func ClusteringCoefficient(g *Graph) float64 { return exact.GlobalClusteringCoefficient(g) }

// TwoR returns 2|R(d)| for d = 1, 2 — the constant converting framework
// weights into unbiased count estimates (Equation 4).
func TwoR(g *Graph, d int) float64 { return core.TwoR(g, d) }

// NRMSE is the paper's accuracy metric over independent trial estimates.
func NRMSE(estimates []float64, truth float64) float64 { return stats.NRMSE(estimates, truth) }

// Similarity is the §6.4 graphlet-kernel similarity: the cosine of two
// concentration vectors.
func Similarity(c1, c2 []float64) float64 { return kernel.Cosine(c1, c2) }

// WedgeSampler exposes the wedge-sampling baseline [32] (full access).
type WedgeSampler = baseline.WedgeSampler

// NewWedgeSampler preprocesses g for wedge sampling.
func NewWedgeSampler(g *Graph) *WedgeSampler { return baseline.NewWedgeSampler(g) }

// PathSampler exposes the 3-path-sampling baseline [14] (full access).
type PathSampler = baseline.PathSampler

// NewPathSampler preprocesses g for 3-path sampling.
func NewPathSampler(g *Graph) *PathSampler { return baseline.NewPathSampler(g) }

// NewWedgeMHRW starts the adapted wedge sampler of Algorithm 4 (restricted
// access).
func NewWedgeMHRW(c Client, rng *rand.Rand) *baseline.WedgeMHRW {
	return baseline.NewWedgeMHRW(c, rng)
}
