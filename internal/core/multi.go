package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/graphlet"
)

// MultiEstimator is the estimation ensemble: it estimates the concentrations
// of every size in MultiConfig.Sizes simultaneously from random walks on
// G(d) — the joint-estimation idea behind MSS [36], generalized to this
// framework: a window of l_k = k-d+1 consecutive states is maintained per
// target size k, and each size re-weights its own samples. One walk's API
// cost therefore buys every size's estimate at once, and a single-size run
// is the case of one size.
//
// Window scheduling is step-aligned: size k's t-th window covers walk states
// [t, t+l_k-1], whatever other sizes ride the same walk. Because the walk
// trajectory is a pure function of the seed and accumulation draws no
// randomness, each size's merged Result is byte-identical to the Result of a
// run configured with that size alone — which is what lets a multi-size run
// satisfy later single-size requests for any covered k.
//
// MultiConfig.Walkers independent walkers split the window budget and their
// per-size accumulators merge by summation in walker-index order. A run is a
// serializable state machine: Snapshot/Restore round-trip the complete
// position (RNG stream, walk, state ring, per-size accumulators) through
// EnsembleState, so interrupted runs resume byte-identically.
type MultiEstimator struct {
	cfg     MultiConfig
	walkers []*walker

	// lo is the global index of walkers[0]: 0 for a full ensemble, the
	// partition's first walker index for a NewPartitionMultiEstimator. Quota
	// and seed derivation always use global indices, so a partitioned run's
	// walkers reproduce exactly the trajectories of a full local run.
	lo int

	// done is the checkpoint target reached so far (windows processed per
	// size, summed across walkers); Snapshot records it and Restore seeds it,
	// making a run a serializable state machine.
	done int
	// restored marks that the next run should continue from the restored
	// state instead of resetting the walkers.
	restored bool
}

// MultiConfig selects a method within the framework (walk order D, CSS,
// NB), the sizes one walk estimates, and the run's ensemble and seed.
type MultiConfig struct {
	// Sizes lists the target graphlet sizes, each in 3..5 and >= D, without
	// duplicates.
	Sizes []int
	// D is the shared walk order (>= 1, <= min(Sizes)); size k's sample is
	// l = k-D+1 consecutive states.
	D int
	// CSS enables corresponding state sampling (§4.1) for every size: the
	// sample weight is the summed stationary mass of all states
	// corresponding to the sampled subgraph rather than α·π̃e. For l <= 2
	// both weights coincide and the plain path is used.
	CSS bool
	// NB replaces the simple random walk with the non-backtracking walk
	// (§4.2); stationary weights use nominal degrees max(deg-1, 1).
	NB bool
	// RecoverStars implements the paper's §3.2 footnote 3 for the one size
	// 4 at D = 1: 3-stars have no Hamiltonian path (α = 0) and are invisible
	// to the walk on G, but their count satisfies the linear relation
	//   noninduced-stars = stars + tailed + 2·chordal + 4·clique,
	// and Σ_v C(d_v,3) (the non-induced star count) is estimable from the
	// same walk because E_π[C(d_v,3)/d_v] = Σ_v C(d_v,3) / 2|E| shares the
	// 2|R(1)| = 2|E| scale of all other weights. With this flag the 3-star
	// entry of the result is recovered instead of being zero.
	RecoverStars bool
	// BurnIn is the number of transitions discarded before sampling starts,
	// per walker. The paper uses none (bias decays by SLLN).
	BurnIn int
	// Walkers is the number of independent concurrent walks splitting the
	// window budget (0 and 1 both mean one, and at most 1<<16). Each has its
	// own RNG stream and walk.Space, and their accumulators merge exactly by
	// summation (Result.Merge). The shared access.Client must be safe for
	// concurrent use (all clients in internal/access and internal/apiserver
	// are).
	Walkers int
	// Seed seeds the engine: walker i's RNG stream is a pure function of
	// (Seed, i), so equal MultiConfigs give byte-identical merged Results at
	// any GOMAXPROCS.
	Seed int64
}

// MethodName renders the paper's naming scheme, e.g. "SRW2CSS" or
// "SRW1CSSNB".
func (c MultiConfig) MethodName() string {
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
func (c MultiConfig) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("core: MultiConfig needs at least one size")
	}
	for i, k := range c.Sizes {
		if k < 3 || k > graphlet.MaxK {
			return fmt.Errorf("core: size %d out of range 3..%d", k, graphlet.MaxK)
		}
		if c.D > k {
			return fmt.Errorf("core: D=%d exceeds size %d", c.D, k)
		}
		for _, prev := range c.Sizes[:i] {
			if prev == k {
				return fmt.Errorf("core: duplicate size %d", k)
			}
		}
	}
	if c.D < 1 {
		return fmt.Errorf("core: D=%d out of range", c.D)
	}
	if c.BurnIn < 0 {
		return fmt.Errorf("core: negative BurnIn %d", c.BurnIn)
	}
	if c.Walkers < 0 {
		return fmt.Errorf("core: negative Walkers %d", c.Walkers)
	}
	if c.Walkers > maxStateWalkers {
		// The state codec refuses more; a run past it could never resume.
		return fmt.Errorf("core: Walkers %d exceeds the cap of %d", c.Walkers, maxStateWalkers)
	}
	if c.RecoverStars && (len(c.Sizes) != 1 || c.Sizes[0] != 4 || c.D != 1) {
		return fmt.Errorf("core: RecoverStars applies only to the single size 4 at D=1")
	}
	return nil
}

// equal compares the two configs' canonical encodings (AppendConfig); Sizes
// order is significant.
func (c MultiConfig) equal(o MultiConfig) bool {
	var a, b [32]byte
	return bytes.Equal(AppendConfig(a[:0], c), AppendConfig(b[:0], o))
}

// sizeConfig is the one-size Config of size k that a merged per-size Result
// carries, equal for every run whose Sizes contain k.
func (c MultiConfig) sizeConfig(k int) Config {
	return Config{
		K: k, D: c.D, CSS: c.CSS, NB: c.NB,
		RecoverStars: c.RecoverStars, BurnIn: c.BurnIn,
		Walkers: c.Walkers, Seed: c.Seed,
	}
}

// NewMultiEstimator builds the ensemble over the client. When cfg.Walkers > 1
// the client is used from that many goroutines concurrently during a run.
func NewMultiEstimator(client access.Client, cfg MultiConfig) (*MultiEstimator, error) {
	return NewPartitionMultiEstimator(client, cfg, 0, walkerCount(cfg.Walkers))
}

// NewPartitionMultiEstimator builds an estimator owning only walkers [lo, hi)
// of the cfg.Walkers-walker ensemble — the unit of distributed execution. The
// partition's walkers use their global seeds (walkerSeed(cfg.Seed, lo+i)) and
// global window quotas, so running every partition of a budget n and merging
// their accumulators in global walker-index order (CombinePartitionStates +
// MergedResult) is byte-identical to one local NewMultiEstimator run of the
// same budget, at any partitioning.
func NewPartitionMultiEstimator(client access.Client, cfg MultiConfig, lo, hi int) (*MultiEstimator, error) {
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
	return &MultiEstimator{cfg: cfg, walkers: ws, lo: lo}, nil
}

// MultiResult holds one Result per requested size, keyed by k.
type MultiResult struct {
	// Steps is the number of windows processed per size (every size covers
	// the same window count), summed over walkers.
	Steps   int
	Results map[int]*Result
}

// Concentrations returns the per-size concentration vectors, keyed by k.
func (m *MultiResult) Concentrations() map[int][]float64 {
	out := make(map[int][]float64, len(m.Results))
	for k, r := range m.Results {
		out[k] = r.Concentration()
	}
	return out
}

// Run advances the walkers for n windows per size in total and returns the
// merged per-size estimates. After Restore it continues the restored run.
func (m *MultiEstimator) Run(n int) (*MultiResult, error) {
	return m.RunCheckpointsCtx(context.Background(), n, 0, nil)
}

// RunCheckpointsCtx runs the window budget n (per size, split across
// walkers), handing fn the run's state at every checkpoint target — every
// `every` windows and at n — strictly in target order. fn gets a state of
// its own (st.MergedResult() has the merged estimates at that target); it
// runs concurrently with the walkers, which never wait for a checkpoint:
// each snapshots itself at its quota of a target and keeps walking, at most
// checkpointLead targets ahead of fn. With one walker the run stays on the
// caller's goroutine and fn is called between its stages. fn == nil runs
// the budget as one target.
//
// Cancellation is cooperative and step-granular: each walker polls the
// context every cancelCheckEvery transitions (and before it hands out a
// state), so a cancel stops the run within a few hundred transitions even
// when the whole budget is one target; no state is handed out once the
// context is done. On cancellation it returns the merged result accumulated
// so far alongside ctx.Err(), so callers can report partial progress. The
// cancellation polls touch no walker state, so runs that complete are
// byte-identical at any GOMAXPROCS.
//
// This is the engine's one failure boundary: crawl clients report transport
// failures by panicking, and every client call, the sequential seed draw
// included, runs beneath it, so a panic becomes the run's error here — the
// failing walker's, never the cancellation it causes in its siblings.
func (m *MultiEstimator) RunCheckpointsCtx(ctx context.Context, n, every int, fn func(st *EnsembleState)) (res *MultiResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: %v", r)
		}
	}()
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive sample budget %d", n)
	}
	resumed := m.restored
	m.restored = false
	if resumed {
		if m.done > n {
			return nil, fmt.Errorf("core: restored state at %d windows exceeds budget %d", m.done, n)
		}
	} else {
		for _, wk := range m.walkers {
			wk.reset()
		}
		// Sequential seed draws: see walker.ensureSeeded.
		for _, wk := range m.walkers {
			wk.ensureSeeded()
		}
		m.done = 0
	}
	targets := checkpointTargets(m.done, n, every, fn != nil)
	if len(targets) == 0 {
		return m.merged(), nil // the restored state already covers the budget
	}
	if len(m.walkers) == 1 {
		err = m.runInline(ctx, m.done, targets, fn)
	} else {
		err = m.runFree(ctx, m.done, targets, fn)
	}
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// A cancel: the partial accumulators are intact and their merge
			// reports the windows actually processed.
			return m.merged(), err
		}
		return nil, err
	}
	return m.merged(), nil
}

// Snapshot exports the run's complete resumable state. It is only valid
// while no run is in progress — before one, or after it returned; inside a
// checkpoint callback the walkers are still moving, and the state fn is
// handed is the one to take. Snapshots are read-only — taking one changes no
// walker state, so checkpointed runs stay byte-identical to unobserved ones.
func (m *MultiEstimator) Snapshot() *EnsembleState {
	st := &EnsembleState{
		Config:      m.cfg,
		WindowsDone: m.done,
		Walkers:     make([]WalkerState, len(m.walkers)),
	}
	for i, wk := range m.walkers {
		st.Walkers[i] = wk.snapshot()
	}
	return st
}

// Restore loads an exported state into the estimator: the next run continues
// the interrupted one from st.WindowsDone windows per size instead of
// starting over, and — because the RNG streams, state rings and accumulators
// are reconstructed exactly — completes with per-size Results byte-identical
// to the uninterrupted run's, at any GOMAXPROCS. The state must have been
// captured under an equal MultiConfig (including Walkers and Seed). On error
// the estimator may be partially mutated and must be discarded.
func (m *MultiEstimator) Restore(st *EnsembleState) error {
	if st == nil {
		return fmt.Errorf("core: nil ensemble state")
	}
	if !st.Config.equal(m.cfg) {
		return fmt.Errorf("core: ensemble state was captured under config %+v, estimator has %+v", st.Config, m.cfg)
	}
	if len(st.Walkers) != len(m.walkers) {
		return fmt.Errorf("core: ensemble state has %d walkers, estimator has %d", len(st.Walkers), len(m.walkers))
	}
	tw := walkerCount(m.cfg.Walkers)
	for i, wk := range m.walkers {
		// The quota split is a pure function of (WindowsDone, W, global
		// index), and every size stands at the walker's quota at each
		// checkpoint target; a state whose per-size window counts disagree
		// with it cannot have come from a checkpoint (of this partition).
		if err := st.Walkers[i].checkQuota(walkerQuota(st.WindowsDone, tw, m.lo+i)); err != nil {
			return fmt.Errorf("core: walker %d at ensemble target %d: %w", m.lo+i, st.WindowsDone, err)
		}
		if err := wk.restore(st.Walkers[i]); err != nil {
			return err
		}
	}
	m.done = st.WindowsDone
	m.restored = true
	return nil
}

// sums adds the walkers' private accumulators by size index, in walker-index
// order, and reports the windows processed per size.
func (m *MultiEstimator) sums() ([]Result, int) {
	sums, steps := newSums(m.cfg), 0
	for _, wk := range m.walkers {
		steps += addWalker(sums, wk.accs, wk.starAcc)
	}
	return sums, steps
}

// merged combines the walkers' private accumulators in walker-index order.
func (m *MultiEstimator) merged() *MultiResult {
	sums, steps := m.sums()
	return newMultiResult(m.cfg.Sizes, sums, steps)
}

// newSums allocates the zeroed merge target of a run under cfg: one Result
// per size, in Sizes order, each carrying its one-size Config.
func newSums(cfg MultiConfig) []Result {
	sums := make([]Result, len(cfg.Sizes))
	for j, k := range cfg.Sizes {
		sums[j] = Result{
			Config:     cfg.sizeConfig(k),
			Weights:    make([]float64, graphlet.Count(k)),
			TypeCounts: make([]int64, graphlet.Count(k)),
		}
	}
	return sums
}

// addWalker folds one walker's accumulators (accs indexed like sums) into the
// merge target and returns the walker's progress: the window count of its
// slowest size (every size stands at the same count except after a
// mid-stage cancel). This is the one float addition sequence — Result.Merge
// per size, walkers in index order — that live runs, snapshots and combined
// partition states all share, which is what makes them byte-identical.
func addWalker(sums []Result, accs []SizeAcc, starAcc float64) int {
	minDone := accs[0].Done
	for j := range sums {
		a := &accs[j]
		part := Result{Steps: a.Done, ValidSamples: a.ValidSamples, Weights: a.Weights, TypeCounts: a.TypeCounts}
		if j == 0 {
			part.StarAcc = starAcc // only ever non-zero for the one size of a RecoverStars run
		}
		sums[j].Merge(&part)
		if a.Done < minDone {
			minDone = a.Done
		}
	}
	return minDone
}

// newMultiResult keys the merged per-size sums by k.
func newMultiResult(sizes []int, sums []Result, steps int) *MultiResult {
	out := &MultiResult{Steps: steps, Results: make(map[int]*Result, len(sizes))}
	for j, k := range sizes {
		out.Results[k] = &sums[j]
	}
	return out
}
