// Package core implements the paper's primary contribution: the general
// random-walk framework for estimating k-node graphlet concentration from
// l = k-d+1 consecutive steps of a random walk on the d-node subgraph
// relationship graph G(d) (Algorithm 1), with the two optimizations of §4 —
// corresponding state sampling (CSS, Algorithm 3) and the non-backtracking
// random walk (NB-SRW) — and the Chernoff-Hoeffding sample-size bound of
// Theorem 3.
//
// Special cases recover the prior art the paper compares against:
// d = k-1 is PSRW [36], d = k is the SRW-on-G(k) method of [36], and
// (k=3, d=1) is the Hardiman-Katzir clustering-coefficient walk [11].
//
// The engine is layered:
//
//   - walker (walker.go): one walk on G(d), the ring of its last max(l_k)
//     states, and one private accumulator per target size — the pure
//     per-goroutine logic. Every size's window slides over the same walk, so
//     a single-size run is simply a run with one size.
//   - ensemble (multi.go, ensemble.go): MultiEstimator spawns
//     MultiConfig.Walkers walkers with deterministically derived seeds and
//     window budgets and runs them concurrently; each walker owns its
//     walk.Space and RNG, and is one padded allocation holding everything
//     it writes per step, so no two walkers write to a shared cache line.
//     Estimator, a typed one-size view over it, is kept only for bench/.
//   - merge (Result.Merge): sums walker accumulators in walker-index order,
//     exact because Equation 4 is linear in the accumulated weights, and
//     schedule-independent by construction.
//   - state (state.go, partition.go): a run's complete position exports as
//     one EnsembleState with one versioned codec, which is also the unit a
//     distributed run ships between machines. Its config section
//     (AppendConfig / ReadConfig) is the one binary form of a MultiConfig.
//
// CSS weights on the step path are read from the per-(k, d) chain tables of
// internal/graphlet (samplingProbabilityWith); the generic per-window
// enumeration survives as the exported SamplingProbability, their oracle.
package core

import (
	"context"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// Config is the one-size spelling of MultiConfig, for the one size K.
//
// Deprecated: use MultiConfig; only bench/ uses it (ROADMAP item 2(d)).
type Config struct {
	K int // graphlet size, 3..5
	// The other fields are MultiConfig's of the same names.
	D            int
	CSS, NB      bool
	RecoverStars bool
	BurnIn       int
	Walkers      int
	Seed         int64
}

// MethodName is MultiConfig.MethodName.
func (c Config) MethodName() string { return c.Multi().MethodName() }

// Multi returns the general configuration c is the one-size case of: the one
// Config → MultiConfig conversion.
//
// Deprecated: only bench/ calls it (ROADMAP item 2(d)).
func (c Config) Multi() MultiConfig {
	return MultiConfig{
		Sizes: []int{c.K}, D: c.D, CSS: c.CSS, NB: c.NB,
		RecoverStars: c.RecoverStars, BurnIn: c.BurnIn,
		Walkers: c.Walkers, Seed: c.Seed,
	}
}

// Result holds the outcome of one estimation run (or, after Merge, of
// several independent runs combined).
type Result struct {
	// Config is the one-size method the Result was accumulated under; its
	// RecoverStars drives Merge.
	//
	// Deprecated: outside core only bench/ reads it (ROADMAP item 2(d)).
	Config Config
	// Steps is the number of windows processed (the paper's sample size n),
	// summed over all walkers.
	Steps int
	// ValidSamples counts windows whose l states covered exactly k distinct
	// nodes (the "valid samples" of Figure 3).
	ValidSamples int
	// Weights[i] is the un-normalized accumulator Ĉ_i — the sum of
	// 1/(α_i·π̃e) (or 1/p̃ under CSS) over valid samples of type i+1.
	// Count estimates follow as 2|R(d)|·Weights[i]/Steps (Equation 4).
	Weights []float64
	// TypeCounts[i] is the raw number of valid samples classified as
	// graphlet type i+1 (diagnostic; not unbiased).
	TypeCounts []int64
	// StarAcc is the accumulated non-induced-star functional Σ C(d_v,3)/d_v
	// (only maintained under Config.RecoverStars). It merges by summation,
	// and the recovered 3-star weight is recomputed from the merged sums —
	// the max(0,·) clamp of the recovery is nonlinear, so clamping per
	// walker before summing would bias the merge.
	StarAcc float64
}

// Merge folds o's accumulators into r: Steps, ValidSamples, Weights and
// TypeCounts all sum. Summation is the exact combination rule because the
// weight accumulator of Equation 4 is linear in the per-window contributions:
// W independent walkers merged this way are statistically identical to one
// walk that processed the union of their windows. The ensemble always merges
// in walker-index order, so merged Results are reproducible bit for bit.
func (r *Result) Merge(o *Result) {
	r.Steps += o.Steps
	r.ValidSamples += o.ValidSamples
	for i := range r.Weights {
		r.Weights[i] += o.Weights[i]
	}
	for i := range r.TypeCounts {
		r.TypeCounts[i] += o.TypeCounts[i]
	}
	r.StarAcc += o.StarAcc
	if r.Config.RecoverStars {
		r.applyStarRecovery()
	}
}

// applyStarRecovery rewrites the invisible 3-star weight from the linear
// relation noninduced = stars + tailed + 2·chordal + 4·clique; all terms
// share the 2|E| scale, so the concentration normalization stays valid;
// float64(...) rounds each product on its own, so no platform fuses an FMA.
func (r *Result) applyStarRecovery() {
	w := r.StarAcc - r.Weights[3] - float64(2*r.Weights[4]) - float64(4*r.Weights[5])
	if w < 0 {
		w = 0
	}
	r.Weights[1] = w
}

// Concentration returns the estimated concentration vector ĉ^k (Equation 5
// or 8). If no valid sample was seen, all entries are zero.
func (r *Result) Concentration() []float64 {
	out := make([]float64, len(r.Weights))
	var sum float64
	for _, w := range r.Weights {
		sum += w
	}
	if sum == 0 {
		return out
	}
	for i, w := range r.Weights {
		out[i] = w / sum
	}
	return out
}

// Counts returns unbiased count estimates Ĉ^k_i given 2|R(d)| (Equation 4).
// For d = 1, 2|R| = 2|E|; for d = 2 use TwoR.
func (r *Result) Counts(twoR float64) []float64 {
	out := make([]float64, len(r.Weights))
	if r.Steps == 0 {
		return out
	}
	for i, w := range r.Weights {
		out[i] = twoR * w / float64(r.Steps)
	}
	return out
}

// Estimator is the typed one-size view over MultiEstimator: the same
// ensemble with Sizes = [Config.K], returning that size's Result directly.
// It holds no run, merge, snapshot or restore logic of its own, so an
// Estimator and a one-size MultiEstimator of equal settings are
// interchangeable down to their snapshot bytes.
//
// Deprecated: use MultiEstimator; only bench/ uses it (ROADMAP item 2(d)).
type Estimator struct {
	k int
	m *MultiEstimator
}

// NewEstimator builds an estimator over the client. When cfg.Walkers > 1 the
// client is used from that many goroutines concurrently during Run.
//
// Deprecated: use NewMultiEstimator; only bench/ calls it (ROADMAP 2(d)).
func NewEstimator(client access.Client, cfg Config) (*Estimator, error) {
	return NewPartitionEstimator(client, cfg, 0, walkerCount(cfg.Walkers))
}

// NewPartitionEstimator builds an estimator owning only walkers [lo, hi) of
// the cfg.Walkers-walker ensemble (see NewPartitionMultiEstimator).
//
// Deprecated: use NewPartitionMultiEstimator; only bench/ calls it.
func NewPartitionEstimator(client access.Client, cfg Config, lo, hi int) (*Estimator, error) {
	m, err := NewPartitionMultiEstimator(client, cfg.Multi(), lo, hi)
	if err != nil {
		return nil, err
	}
	return &Estimator{k: cfg.K, m: m}, nil
}

// Run processes n windows (Algorithm 1), split across the configured
// walkers, and returns the merged estimates.
//
// Deprecated: only bench/ calls it (ROADMAP item 2(d)).
func (e *Estimator) Run(n int) (*Result, error) {
	return e.RunCheckpoints(n, 0, nil)
}

// RunCheckpoints is MultiEstimator.RunCheckpointsCtx, never cancelled, with
// fn handed the view's size's concentration at each barrier.
//
// Deprecated: only bench/ calls it (ROADMAP item 2(d)).
func (e *Estimator) RunCheckpoints(n, every int, fn func(step int, conc []float64)) (*Result, error) {
	var each func(int, map[int][]float64)
	if fn != nil {
		each = func(step int, conc map[int][]float64) { fn(step, conc[e.k]) }
	}
	res, err := e.m.RunCheckpointsCtx(context.Background(), n, every, each)
	if res == nil {
		return nil, err
	}
	return res.Results[e.k], err
}

// Snapshot exports the run's complete resumable state (MultiEstimator.Snapshot).
//
// Deprecated: only bench/ calls it (ROADMAP item 2(d)).
func (e *Estimator) Snapshot() *EnsembleState { return e.m.Snapshot() }

// Restore loads an exported state so that the next Run continues the
// interrupted run (MultiEstimator.Restore).
//
// Deprecated: only bench/ calls it (ROADMAP item 2(d)).
func (e *Estimator) Restore(st *EnsembleState) error { return e.m.Restore(st) }

// SamplingProbability computes the CSS weight p̃ = 2|R(d)|·p for the subgraph
// induced by the given k distinct nodes (Algorithm 3) with the generic chain
// enumerator, probing every node pair through client.HasEdge. It is exposed
// for the Table 4 reproduction and for external verification, and it is the
// oracle the walkers' table-driven samplingProbabilityWith is tested against.
func SamplingProbability(client access.Client, k, d int, nb bool, nodes []int32) float64 {
	hasEdge := func(i, j int) bool { return client.HasEdge(nodes[i], nodes[j]) }
	return enumeratedSamplingProbability(walk.NewSpace(client, d), k, d, nb, nodes, hasEdge)
}

// enumeratedSamplingProbability sums Π 1/deg over the interior states of
// every chain graphlet.EnumerateChains emits for the k nodes under hasEdge.
func enumeratedSamplingProbability(space walk.Space, k, d int, nb bool, nodes []int32, hasEdge func(i, j int) bool) float64 {
	total := 0.0
	graphlet.EnumerateChains(k, d, hasEdge, func(chain []uint8) bool {
		w := 1.0
		// Interior states only (indices 1..l-2); for l = 1 the weight is the
		// state's degree, but CSS is never used with l <= 2.
		for i := 1; i < len(chain)-1; i++ {
			w *= 1 / float64(interiorDegree(space, nb, nodes, chain[i]))
		}
		total += w
		return true
	})
	return total
}

// samplingProbabilityWith is the step-path form of SamplingProbability for a
// window whose adjacency code is already known: the chains come from the
// (k, d) table in internal/graphlet instead of a fresh enumeration, so no
// HasEdge probe and no allocation happens here, and each distinct interior
// state's degree is computed once per window. The table keeps
// EnumerateChains' emission order and the factors are the same 1/float64(deg)
// multiplied in the same order, so the result equals SamplingProbability's
// bit for bit — which every byte-identity test of the engine relies on.
func samplingProbabilityWith(space walk.Space, chains *graphlet.ChainTable, nb bool, nodes []int32, code uint16) float64 {
	// inv[mask] caches 1/deg of the interior state with that node mask; a
	// computed factor is never 0, so 0 marks "not computed yet".
	var inv [1 << graphlet.MaxK]float64
	masks := chains.Interiors(code)
	total := 0.0
	for n := chains.Interior; len(masks) >= n; masks = masks[n:] {
		w := 1.0
		for _, m := range masks[:n] {
			if inv[m] == 0 {
				inv[m] = 1 / float64(interiorDegree(space, nb, nodes, m))
			}
			w *= inv[m]
		}
		total += w
	}
	return total
}

// interiorDegree returns the G(d) degree (nominal under NB) of the chain
// state holding the nodes selected by mask.
func interiorDegree(space walk.Space, nb bool, nodes []int32, mask uint8) int {
	var buf [graphlet.MaxK]int32
	n := 0
	for b, x := range nodes {
		if mask&(1<<uint(b)) != 0 {
			buf[n] = x
			n++
		}
	}
	deg := space.StateDegree(walk.StateOf(buf[:n]...))
	if nb {
		deg = nominal(deg)
	}
	return deg
}
