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
//   - walker (walker.go): one walk, its sliding window, and a private Result
//     accumulator — the pure per-goroutine logic.
//   - ensemble (ensemble.go): spawns Config.Walkers walkers with
//     deterministically derived seeds and window budgets and runs them
//     concurrently; each walker owns its walk.Space and RNG.
//   - merge (Result.Merge): sums walker accumulators in walker-index order,
//     exact because Equation 4 is linear in the accumulated weights, and
//     schedule-independent by construction.
//
// CSS weights on the step path are read from the per-(k, d) chain tables of
// internal/graphlet (samplingProbabilityWith); the generic per-window
// enumeration survives as the exported SamplingProbability, their oracle.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// Config selects a method within the framework.
type Config struct {
	K int // graphlet size, 3..5
	D int // walk order, 1..K; l = K-D+1 consecutive steps form one sample

	// CSS enables corresponding state sampling (§4.1): the sample weight is
	// the summed stationary mass of all states corresponding to the sampled
	// subgraph rather than α·π̃e. For l <= 2 both weights coincide and the
	// plain path is used.
	CSS bool
	// NB replaces the simple random walk with the non-backtracking walk
	// (§4.2); stationary weights use nominal degrees max(deg-1, 1).
	NB bool

	// RecoverStars implements the paper's §3.2 footnote 3 for (K=4, D=1):
	// 3-stars have no Hamiltonian path (α = 0) and are invisible to the walk
	// on G, but their count satisfies the linear relation
	//   noninduced-stars = stars + tailed + 2·chordal + 4·clique,
	// and Σ_v C(d_v,3) (the non-induced star count) is estimable from the
	// same walk because E_π[C(d_v,3)/d_v] = Σ_v C(d_v,3) / 2|E| shares the
	// 2|R(1)| = 2|E| scale of all other weights. With this flag the 3-star
	// entry of the result is recovered instead of being zero.
	RecoverStars bool

	// BurnIn is the number of transitions discarded before sampling starts,
	// per walker. The paper uses none (bias decays by SLLN); experiments keep
	// it at 0.
	BurnIn int

	// Walkers is the number of independent concurrent walks the run's window
	// budget is split across (0 and 1 both mean one walk — the historical
	// sequential behavior). Each walker gets its own RNG stream and
	// walk.Space; their unbiased weight accumulators merge by summation
	// (Result.Merge), so the estimate is exact regardless of W. The shared
	// access.Client must be safe for concurrent use (all clients in
	// internal/access and internal/apiserver are).
	Walkers int

	// Seed seeds the engine. Walker i derives its RNG stream from
	// (Seed, i) deterministically, so two runs with equal Config produce
	// byte-identical merged Results, at any GOMAXPROCS.
	Seed int64
}

// MethodName renders the paper's naming scheme, e.g. "SRW2CSS" or
// "SRW1CSSNB".
func (c Config) MethodName() string {
	s := fmt.Sprintf("SRW%d", c.D)
	if c.CSS {
		s += "CSS"
	}
	if c.NB {
		s += "NB"
	}
	return s
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 3 || c.K > graphlet.MaxK {
		return fmt.Errorf("core: K=%d out of range 3..%d", c.K, graphlet.MaxK)
	}
	if c.D < 1 || c.D > c.K {
		return fmt.Errorf("core: D=%d out of range 1..K=%d", c.D, c.K)
	}
	if c.BurnIn < 0 {
		return fmt.Errorf("core: negative BurnIn %d", c.BurnIn)
	}
	if c.Walkers < 0 {
		return fmt.Errorf("core: negative Walkers %d", c.Walkers)
	}
	if c.RecoverStars && (c.K != 4 || c.D != 1) {
		return fmt.Errorf("core: RecoverStars applies only to K=4, D=1")
	}
	return nil
}

// Result holds the outcome of one estimation run (or, after Merge, of
// several independent runs combined).
type Result struct {
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
// share the 2|E| scale, so the concentration normalization stays valid.
func (r *Result) applyStarRecovery() {
	w := r.StarAcc - r.Weights[3] - 2*r.Weights[4] - 4*r.Weights[5]
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

// Estimator runs the framework on a restricted-access graph: an ensemble of
// Config.Walkers independent walkers over one shared client.
type Estimator struct {
	cfg     Config
	client  access.Client
	walkers []*walker

	// lo is the global index of walkers[0]: 0 for a full ensemble, the
	// partition's first walker index for a NewPartitionEstimator. Quota and
	// seed derivation always use global indices, so a partitioned run's
	// walkers reproduce exactly the trajectories of a full local run.
	lo int

	// done is the checkpoint target reached so far (windows processed across
	// walkers); Snapshot records it and Restore seeds it, making a run a
	// serializable state machine.
	done int
	// restored marks that the next run should continue from the restored
	// state instead of resetting the walkers.
	restored bool
}

// NewEstimator builds an estimator over the client. When cfg.Walkers > 1 the
// client is used from that many goroutines concurrently during Run.
func NewEstimator(client access.Client, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws := make([]*walker, walkerCount(cfg.Walkers))
	for i := range ws {
		ws[i] = newWalker(client, cfg, walkerSeed(cfg.Seed, i))
	}
	return &Estimator{cfg: cfg, client: client, walkers: ws}, nil
}

// NewPartitionEstimator builds an estimator owning only walkers [lo, hi) of
// the cfg.Walkers-walker ensemble — the unit of distributed execution. The
// partition's walkers use their global seeds (walkerSeed(cfg.Seed, lo+i)) and
// global window quotas, so running every partition of a budget n and merging
// their accumulators in global walker-index order (CombinePartitionStates +
// MergedResult) is byte-identical to one local NewEstimator run of the same
// budget, at any partitioning.
func NewPartitionEstimator(client access.Client, cfg Config, lo, hi int) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := walkerCount(cfg.Walkers)
	if lo < 0 || hi > w || lo >= hi {
		return nil, fmt.Errorf("core: partition [%d,%d) out of range for %d walkers", lo, hi, w)
	}
	ws := make([]*walker, hi-lo)
	for i := range ws {
		ws[i] = newWalker(client, cfg, walkerSeed(cfg.Seed, lo+i))
	}
	return &Estimator{cfg: cfg, client: client, walkers: ws, lo: lo}, nil
}

// Run processes n windows (Algorithm 1), split across the configured
// walkers, and returns the merged estimates.
func (e *Estimator) Run(n int) (*Result, error) {
	return e.RunCheckpoints(n, 0, nil)
}

// RunCheckpoints is Run with a periodic callback: after every `every`
// windows (summed across walkers, and at the end) it synchronizes the
// ensemble and invokes fn with the number of windows processed so far and
// the merged concentration snapshot. Used to trace convergence (Figure 6).
// Checkpoints are ensemble-wide barriers; with fn == nil the walkers run
// barrier-free end to end.
func (e *Estimator) RunCheckpoints(n, every int, fn func(step int, conc []float64)) (*Result, error) {
	return e.RunCheckpointsCtx(context.Background(), n, every, fn)
}

// RunCheckpointsCtx is RunCheckpoints with cooperative, step-granular
// cancellation: each walker polls the context every cancelCheckEvery windows
// inside its stage (and the ensemble checks it again at every checkpoint
// barrier), so a cancel stops the run within a few hundred transitions even
// when the whole budget is a single barrier-free stage. On cancellation it
// returns the merged Result accumulated so far alongside ctx.Err(), so
// callers can report partial progress. The cancellation polls touch no
// walker state, so runs that complete are byte-identical to RunCheckpoints
// at any GOMAXPROCS.
func (e *Estimator) RunCheckpointsCtx(ctx context.Context, n, every int, fn func(step int, conc []float64)) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive sample budget %d", n)
	}
	nw := len(e.walkers)
	// Quotas are always computed against the full ensemble's walker count at
	// global indices, so a partition advances its walkers exactly as a full
	// local run would (for a full ensemble tw == nw and e.lo == 0).
	tw := walkerCount(e.cfg.Walkers)
	resumed := e.restored
	e.restored = false
	if resumed {
		if e.done > n {
			return nil, fmt.Errorf("core: restored state at %d windows exceeds budget %d", e.done, n)
		}
	} else {
		for _, wk := range e.walkers {
			wk.reset()
		}
		// Sequential seed draws: see walker.ensureSeeded.
		for _, wk := range e.walkers {
			wk.ensureSeeded()
		}
		e.done = 0
	}
	prev := e.done
	for _, target := range checkpointTargets(n, every, fn != nil) {
		if target <= prev {
			continue // already covered by the restored state
		}
		if err := ctx.Err(); err != nil {
			return e.merged(), err
		}
		lo, hi := prev, target
		if err := runStage(nw, func(i int) error {
			return e.walkers[i].run(ctx, walkerQuota(hi, tw, e.lo+i)-walkerQuota(lo, tw, e.lo+i))
		}); err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// A mid-stage cancel: the partial accumulators are intact and
				// their merge reports the windows actually processed.
				return e.merged(), err
			}
			return nil, err
		}
		prev = target
		e.done = target
		if fn != nil {
			fn(target, e.merged().Concentration())
		}
	}
	return e.merged(), nil
}

// Snapshot exports the run's complete resumable state. It is only valid
// while the walkers are quiescent: from inside a RunCheckpoints callback
// (the walkers park at the checkpoint barrier for the callback's duration)
// or after a run returned. Snapshots are read-only — taking one changes no
// walker state, so checkpointed runs stay byte-identical to unobserved ones.
func (e *Estimator) Snapshot() *EnsembleState {
	st := &EnsembleState{
		Config:      e.cfg,
		WindowsDone: e.done,
		Walkers:     make([]WalkerState, len(e.walkers)),
	}
	for i, wk := range e.walkers {
		st.Walkers[i] = wk.snapshot()
	}
	return st
}

// Restore loads an exported state into the estimator: the next
// Run/RunCheckpoints call continues the interrupted run from st.WindowsDone
// windows instead of starting over, and — because the RNG streams, windows
// and accumulators are reconstructed exactly — completes with a result
// byte-identical to the uninterrupted run's, at any GOMAXPROCS. The state
// must have been captured under an equal Config (including Walkers and
// Seed). On error the estimator may be partially mutated and must be
// discarded.
func (e *Estimator) Restore(st *EnsembleState) error {
	if st == nil {
		return fmt.Errorf("core: nil ensemble state")
	}
	if st.Config != e.cfg {
		return fmt.Errorf("core: ensemble state was captured under config %+v, estimator has %+v", st.Config, e.cfg)
	}
	if len(st.Walkers) != len(e.walkers) {
		return fmt.Errorf("core: ensemble state has %d walkers, estimator has %d", len(st.Walkers), len(e.walkers))
	}
	tw := walkerCount(e.cfg.Walkers)
	for i, wk := range e.walkers {
		// The quota split is a pure function of (WindowsDone, W, global
		// index); a state whose per-walker window counts disagree with it
		// cannot have come from a checkpoint barrier (of this partition).
		if want := walkerQuota(st.WindowsDone, tw, e.lo+i); st.Walkers[i].ResSteps != want {
			return fmt.Errorf("core: walker %d processed %d windows, want %d at ensemble target %d",
				e.lo+i, st.Walkers[i].ResSteps, want, st.WindowsDone)
		}
		if err := wk.restore(st.Walkers[i]); err != nil {
			return err
		}
	}
	e.done = st.WindowsDone
	e.restored = true
	return nil
}

// merged combines the walkers' private Results in walker-index order.
func (e *Estimator) merged() *Result {
	out := &Result{
		Config:     e.cfg,
		Weights:    make([]float64, len(e.walkers[0].alpha)),
		TypeCounts: make([]int64, len(e.walkers[0].alpha)),
	}
	for _, wk := range e.walkers {
		out.Merge(wk.res)
	}
	return out
}

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
