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
//	g, _ := graphletrw.OpenLCC("graph.txt")           // edge list or .gcsr
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
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/kernel"
)

// Graph is an immutable undirected simple graph with sorted adjacency.
type Graph = graph.Graph

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

// EnsembleState is a run's complete resumable state at a checkpoint target:
// what an estimator's checkpoint callback is handed, and what Restore takes.
// Its MergedResult is the estimate at that target.
type EnsembleState = core.EnsembleState

// Graphlet describes one of the catalog's subgraph patterns.
type Graphlet = graphlet.Graphlet

// OpenLCC opens a graph file, detecting its encoding by extension, then
// magic bytes: a .gcsr binary CSR file (opened zero-copy via mmap where
// available) or a text edge list ("u v" lines). It returns the largest
// connected component — the paper's preprocessing, and what every command in
// cmd/ estimates over. Call Close on the result when done. A connected
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

// Similarity is the §6.4 graphlet-kernel similarity: the cosine of two
// concentration vectors.
func Similarity(c1, c2 []float64) float64 { return kernel.Cosine(c1, c2) }
