package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// MultiEstimator estimates the concentrations of several graphlet sizes
// simultaneously from random walks on G(d) — the joint-estimation idea
// behind MSS [36], generalized to this framework: a window of l_k = k-d+1
// consecutive states is maintained per target size k, and each size
// re-weights its own samples exactly as the single-size estimator does. One
// walk's API cost therefore buys every size's estimate at once.
//
// Window scheduling is step-aligned: size k's t-th window covers walk states
// [t, t+l_k-1], exactly the windows a single-size run over the same RNG
// stream would process. Because the walk trajectory is a pure function of the
// seed and accumulation draws no randomness, each size's merged Result is
// byte-identical to the Result of a MultiEstimator configured with that size
// alone — which is what lets a multi-size run satisfy later single-size
// requests for any covered k.
//
// Like Estimator, it is an ensemble: MultiConfig.Walkers independent
// multi-size walkers split the window budget and their per-size Results
// merge by summation in walker-index order. And like Estimator, a run is a
// serializable state machine: Snapshot/Restore round-trip the complete
// position (RNG stream, walk, state ring, per-size accumulators) through
// MultiEnsembleState, so interrupted runs resume byte-identically.
type MultiEstimator struct {
	cfg     MultiConfig
	client  access.Client
	walkers []*multiWalker

	// lo is the global index of walkers[0] (see Estimator.lo): 0 for a full
	// ensemble, the partition's first walker index otherwise.
	lo int

	// done is the checkpoint target reached so far (windows processed per
	// size, summed across walkers); Snapshot records it and Restore seeds it.
	done int
	// restored marks that the next run should continue from the restored
	// state instead of resetting the walkers.
	restored bool
}

// MultiConfig configures a MultiEstimator.
type MultiConfig struct {
	// Sizes lists the target graphlet sizes, each in 3..5 and >= D, without
	// duplicates.
	Sizes []int
	// D is the shared walk order (>= 1, <= min(Sizes)).
	D int
	// CSS and NB enable the §4 optimizations for every size (CSS applies
	// where l > 2).
	CSS, NB bool
	// Walkers is the number of independent concurrent walks (0 and 1 both
	// mean one); semantics match Config.Walkers.
	Walkers int
	Seed    int64
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
	if c.Walkers < 0 {
		return fmt.Errorf("core: negative Walkers %d", c.Walkers)
	}
	return nil
}

// equal reports deep equality (MultiConfig holds a slice, so == is
// unavailable); Sizes order is significant.
func (c MultiConfig) equal(o MultiConfig) bool {
	if len(c.Sizes) != len(o.Sizes) || c.D != o.D || c.CSS != o.CSS ||
		c.NB != o.NB || c.Walkers != o.Walkers || c.Seed != o.Seed {
		return false
	}
	for i := range c.Sizes {
		if c.Sizes[i] != o.Sizes[i] {
			return false
		}
	}
	return true
}

// NewMultiEstimator builds the joint estimator.
func NewMultiEstimator(client access.Client, cfg MultiConfig) (*MultiEstimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws := make([]*multiWalker, walkerCount(cfg.Walkers))
	for i := range ws {
		ws[i] = newMultiWalker(client, cfg, walkerSeed(cfg.Seed, i))
	}
	return &MultiEstimator{cfg: cfg, client: client, walkers: ws}, nil
}

// NewPartitionMultiEstimator is NewPartitionEstimator for the multi-size
// engine: an estimator owning walkers [lo, hi) of the cfg.Walkers-walker
// ensemble, with global seeds and window quotas, so partitioned runs combine
// byte-identically to a local NewMultiEstimator run.
func NewPartitionMultiEstimator(client access.Client, cfg MultiConfig, lo, hi int) (*MultiEstimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := walkerCount(cfg.Walkers)
	if lo < 0 || hi > w || lo >= hi {
		return nil, fmt.Errorf("core: partition [%d,%d) out of range for %d walkers", lo, hi, w)
	}
	ws := make([]*multiWalker, hi-lo)
	for i := range ws {
		ws[i] = newMultiWalker(client, cfg, walkerSeed(cfg.Seed, lo+i))
	}
	return &MultiEstimator{cfg: cfg, client: client, walkers: ws, lo: lo}, nil
}

// MultiResult holds one Result per requested size, keyed by k.
type MultiResult struct {
	// Steps is the number of windows processed per size (every size covers
	// the same window count), summed over walkers.
	Steps   int
	Results map[int]*Result
}

// Merge folds o into m: Steps sum, and each size's Result merges
// (Result.Merge). Both MultiResults must come from the same MultiConfig.
func (m *MultiResult) Merge(o *MultiResult) {
	m.Steps += o.Steps
	for k, r := range o.Results {
		m.Results[k].Merge(r)
	}
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

// RunCheckpointsCtx mirrors Estimator.RunCheckpointsCtx for the multi-size
// engine: the window budget n (per size, split across walkers) runs in
// checkpoint stages of `every` windows; at each barrier fn receives the
// windows processed so far and the merged per-size concentration snapshot.
// Cancellation is cooperative and step-granular; on cancel the merged
// partial MultiResult is returned alongside ctx.Err(). Runs that complete
// are byte-identical at any GOMAXPROCS.
func (m *MultiEstimator) RunCheckpointsCtx(ctx context.Context, n, every int, fn func(step int, conc map[int][]float64)) (*MultiResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive sample budget %d", n)
	}
	nw := len(m.walkers)
	// Global-index quotas, as in Estimator.RunCheckpointsCtx.
	tw := walkerCount(m.cfg.Walkers)
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
	prev := m.done
	for _, target := range checkpointTargets(n, every, fn != nil) {
		if target <= prev {
			continue // already covered by the restored state
		}
		if err := ctx.Err(); err != nil {
			return m.merged(), err
		}
		lo, hi := prev, target
		if err := runStage(nw, func(i int) error {
			return m.walkers[i].run(ctx, walkerQuota(hi, tw, m.lo+i)-walkerQuota(lo, tw, m.lo+i))
		}); err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// A mid-stage cancel: the partial accumulators are intact and
				// their merge reports the windows actually processed.
				return m.merged(), err
			}
			return nil, err
		}
		prev = target
		m.done = target
		if fn != nil {
			fn(target, m.merged().Concentrations())
		}
	}
	return m.merged(), nil
}

// Snapshot exports the run's complete resumable state. Like
// Estimator.Snapshot it is only valid while the walkers are quiescent (from
// inside a checkpoint callback or after a run returned) and is read-only.
func (m *MultiEstimator) Snapshot() *MultiEnsembleState {
	st := &MultiEnsembleState{
		Config:      m.cfg,
		WindowsDone: m.done,
		Walkers:     make([]MultiWalkerState, len(m.walkers)),
	}
	for i, wk := range m.walkers {
		st.Walkers[i] = wk.snapshot()
	}
	return st
}

// Restore loads an exported state: the next Run call continues the
// interrupted run from st.WindowsDone windows per size and completes with
// per-size Results byte-identical to the uninterrupted run's, at any
// GOMAXPROCS. The state must have been captured under an equal MultiConfig.
// On error the estimator may be partially mutated and must be discarded.
func (m *MultiEstimator) Restore(st *MultiEnsembleState) error {
	if st == nil {
		return fmt.Errorf("core: nil multi ensemble state")
	}
	if !st.Config.equal(m.cfg) {
		return fmt.Errorf("core: multi ensemble state was captured under config %+v, estimator has %+v", st.Config, m.cfg)
	}
	if len(st.Walkers) != len(m.walkers) {
		return fmt.Errorf("core: multi ensemble state has %d walkers, estimator has %d", len(st.Walkers), len(m.walkers))
	}
	tw := walkerCount(m.cfg.Walkers)
	for i, wk := range m.walkers {
		// Every size advances in lockstep across stage barriers, so each
		// size's window count must equal the pure-function quota split (at
		// the walker's global index).
		want := walkerQuota(st.WindowsDone, tw, m.lo+i)
		for j, acc := range st.Walkers[i].Accs {
			if acc.Done != want {
				return fmt.Errorf("core: walker %d size[%d] processed %d windows, want %d at ensemble target %d",
					m.lo+i, j, acc.Done, want, st.WindowsDone)
			}
		}
		if err := wk.restore(st.Walkers[i]); err != nil {
			return err
		}
	}
	m.done = st.WindowsDone
	m.restored = true
	return nil
}

// merged combines the walkers' private MultiResults in walker-index order.
// Each merged per-size Result carries the full equivalent single-size Config
// (including Walkers and Seed), so it is structurally identical to what an
// Estimator configured for that size alone would return.
func (m *MultiEstimator) merged() *MultiResult {
	out := m.walkers[0].emptyResult()
	for _, wk := range m.walkers {
		out.Merge(wk.res)
	}
	for _, r := range out.Results {
		r.Config.Walkers = m.cfg.Walkers
		r.Config.Seed = m.cfg.Seed
	}
	return out
}

// multiWalker is the per-goroutine layer of the multi-size engine: one walk
// whose ring of the last max(l_k) states serves every target size's window.
//
// The scheduling invariant is index-based: pushed counts the walk states
// seen so far (state 0 is the start state, so pushed == walk steps + 1 once
// primed), state j lives in ring slot j % maxL, and done[i] counts the
// windows size i has accumulated — size i's next window covers states
// [done[i], done[i]+l_i-1] and is ready as soon as pushed >= done[i]+l_i.
// The greedy run loop accumulates every ready window before taking a step,
// so no size ever falls more than maxL-1 states behind and the ring always
// retains every state a pending window needs.
type multiWalker struct {
	client access.Client
	space  walk.Space
	seed   int64      // walker-specific seed (walkerSeed); rebuilds rng on restore
	rng    *walk.Rand // position-counted so checkpoints can snapshot the stream
	w      *walk.Walk
	d      int
	css    bool
	nb     bool

	sizes  []int
	ls     []int                  // l_k = k-d+1 per size
	chains []*graphlet.ChainTable // per size; nil unless CSS and l_k > 2
	maxL   int

	// Ring of the last maxL states and their degrees; state j at slot j%maxL.
	win    []walk.State
	degs   []int
	pushed int   // states pushed since reset/restore
	done   []int // windows accumulated per size

	// curStart parameterizes windowAt for the window being accumulated.
	curStart int

	scratchNodes []int32

	res    *MultiResult
	seeded bool
	primed bool
}

func newMultiWalker(client access.Client, cfg MultiConfig, seed int64) *multiWalker {
	maxL := 0
	ls := make([]int, len(cfg.Sizes))
	chains := make([]*graphlet.ChainTable, len(cfg.Sizes))
	for i, k := range cfg.Sizes {
		ls[i] = k - cfg.D + 1
		if ls[i] > maxL {
			maxL = ls[i]
		}
		if cfg.CSS && ls[i] > 2 {
			chains[i] = graphlet.Chains(k, cfg.D)
		}
	}
	return &multiWalker{
		client: client,
		space:  walk.NewSpace(client, cfg.D),
		seed:   seed,
		rng:    walk.NewRand(seed),
		d:      cfg.D,
		css:    cfg.CSS,
		nb:     cfg.NB,
		sizes:  append([]int(nil), cfg.Sizes...),
		ls:     ls,
		chains: chains,
		maxL:   maxL,
		win:    make([]walk.State, maxL),
		degs:   make([]int, maxL),
		done:   make([]int, len(cfg.Sizes)),
	}
}

// emptyResult allocates a zeroed MultiResult shaped for the walker's sizes.
func (m *multiWalker) emptyResult() *MultiResult {
	out := &MultiResult{Results: map[int]*Result{}}
	for _, k := range m.sizes {
		out.Results[k] = &Result{
			Config:     Config{K: k, D: m.d, CSS: m.css, NB: m.nb},
			Weights:    make([]float64, graphlet.Count(k)),
			TypeCounts: make([]int64, graphlet.Count(k)),
		}
	}
	return out
}

func (m *multiWalker) reset() {
	m.res = m.emptyResult()
	m.seeded = false
	m.primed = false
	m.pushed = 0
	for i := range m.done {
		m.done[i] = 0
	}
}

// ensureSeeded mirrors walker.ensureSeeded for the multi-size engine: only
// the start-state draw needs walker-index ordering.
func (m *multiWalker) ensureSeeded() {
	if !m.seeded {
		m.w = walk.New(m.space, m.nb, m.rng.Rand)
		m.seeded = true
	}
}

// start primes the walker: start state drawn and pushed as state 0. Further
// states are pushed lazily by the run loop, only when a window needs them.
func (m *multiWalker) start() {
	m.ensureSeeded()
	if m.primed {
		return
	}
	m.pushed = 0
	m.push(m.w.Current())
	m.primed = true
}

// minDone returns the slowest size's window count — the walker's overall
// progress (every size reaches the stage target before run returns).
func (m *multiWalker) minDone() int {
	min := m.done[0]
	for _, d := range m.done[1:] {
		if d < min {
			min = d
		}
	}
	return min
}

// run advances every size by `count` windows (all sizes stand at the same
// window count when a stage starts), polling ctx every cancelCheckEvery walk
// transitions. Windows are accumulated greedily the moment their states
// exist, so the walk only steps when some size still needs a new state.
func (m *multiWalker) run(ctx context.Context, count int) error {
	m.start()
	target := m.done[0] + count
	done := ctx.Done()
	steps := 0
	for m.minDone() < target {
		advanced := false
		for i := range m.sizes {
			if m.done[i] < target && m.done[i]+m.ls[i] <= m.pushed {
				if err := m.accumulateSize(i); err != nil {
					return err
				}
				m.done[i]++
				m.res.Results[m.sizes[i]].Steps++
				advanced = true
			}
		}
		if advanced {
			m.res.Steps = m.minDone()
			continue
		}
		// Every ready window is consumed; the slowest size needs one more
		// state.
		if done != nil && steps%cancelCheckEvery == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		steps++
		m.push(m.w.Step())
	}
	return nil
}

func (m *multiWalker) push(s walk.State) {
	slot := m.pushed % m.maxL
	m.win[slot] = s
	m.degs[slot] = m.space.StateDegree(s)
	m.pushed++
}

// windowAt returns the i-th state (0 = oldest) of the window starting at
// curStart; the signature matches windowCode's accessor.
func (m *multiWalker) windowAt(i int) (walk.State, int) {
	j := (m.curStart + i) % m.maxL
	return m.win[j], m.degs[j]
}

// accumulateSize processes size index i's next window (states
// [done[i], done[i]+l_i-1]) into its private Result — the same math as
// walker.accumulate, so a size's accumulator trajectory is identical to a
// single-size run over the same walk.
func (m *multiWalker) accumulateSize(i int) error {
	k := m.sizes[i]
	l := m.ls[i]
	m.curStart = m.done[i]
	res := m.res.Results[k]
	nodes := m.scratchNodes[:0]
	for i := 0; i < l; i++ {
		s, _ := m.windowAt(i)
		for j := 0; j < s.Len(); j++ {
			x := s.Node(j)
			seen := false
			for _, y := range nodes {
				if y == x {
					seen = true
					break
				}
			}
			if !seen {
				nodes = append(nodes, x)
			}
		}
	}
	m.scratchNodes = nodes
	if len(nodes) != k {
		return nil
	}
	res.ValidSamples++
	code := windowCode(m.client, m.space, k, l, nodes, m.windowAt)
	typ := graphlet.ClassifyCode(k, code)
	if typ < 0 {
		return fmt.Errorf("core: multi window %v disconnected", nodes)
	}
	res.TypeCounts[typ]++

	var weight float64
	if m.chains[i] != nil {
		p := samplingProbabilityWith(m.space, m.chains[i], m.nb, nodes, code)
		if p <= 0 {
			return fmt.Errorf("core: multi zero sampling probability")
		}
		weight = 1 / p
	} else {
		alpha := graphlet.Alpha(k, m.d, typ+1)
		if alpha == 0 {
			return fmt.Errorf("core: multi walk produced type g%d_%d with alpha=0", k, typ+1)
		}
		pie := 1.0
		switch {
		case l == 1:
			_, deg := m.windowAt(0)
			pie = float64(deg)
		case l > 2:
			for i := 1; i < l-1; i++ {
				_, deg := m.windowAt(i)
				if m.nb {
					deg = nominal(deg)
				}
				pie *= 1 / float64(deg)
			}
		}
		weight = 1 / (float64(alpha) * pie)
	}
	res.Weights[typ] += weight
	return nil
}

// snapshot exports the walker's complete resumable state; only safe while
// the walker is quiescent (between ensemble stages), and read-only.
func (m *multiWalker) snapshot() MultiWalkerState {
	st := MultiWalkerState{
		RNGPos: m.rng.Pos(),
		Seeded: m.seeded,
		Primed: m.primed,
	}
	st.Accs = make([]MultiSizeAcc, len(m.sizes))
	for i, k := range m.sizes {
		acc := MultiSizeAcc{Done: m.done[i]}
		if m.res != nil {
			r := m.res.Results[k]
			acc.ValidSamples = r.ValidSamples
			acc.Weights = append([]float64(nil), r.Weights...)
			acc.TypeCounts = append([]int64(nil), r.TypeCounts...)
		} else {
			acc.Weights = make([]float64, graphlet.Count(k))
			acc.TypeCounts = make([]int64, graphlet.Count(k))
		}
		st.Accs[i] = acc
	}
	if m.seeded {
		ws := m.w.State()
		st.Steps = ws.Steps
		st.HasPrev = ws.HasPrev
		st.Cur = ws.Cur.Nodes(nil)
		if ws.HasPrev {
			st.Prev = ws.Prev.Nodes(nil)
		}
	}
	if m.primed {
		// The ring holds the last min(pushed, maxL) states; export them
		// oldest-first so restore can re-place state j at slot j % maxL.
		n := m.pushed
		if n > m.maxL {
			n = m.maxL
		}
		st.Win = make([][]int32, n)
		st.Degs = make([]int, n)
		for i := 0; i < n; i++ {
			j := m.pushed - n + i
			slot := j % m.maxL
			st.Win[i] = m.win[slot].Nodes(nil)
			st.Degs[i] = m.degs[slot]
		}
	}
	return st
}

// restore rebuilds the walker from an exported state: a fresh space, the RNG
// fast-forwarded to the recorded position, the walk at its recorded
// position, the state ring re-placed at canonical slots, and the per-size
// accumulators. On error the walker may be left partially mutated; callers
// discard the whole estimator then.
func (m *multiWalker) restore(st MultiWalkerState) error {
	if len(st.Accs) != len(m.sizes) {
		return fmt.Errorf("core: multi restore: %d size accumulators, want %d", len(st.Accs), len(m.sizes))
	}
	if st.Primed && !st.Seeded {
		return fmt.Errorf("core: multi restore: primed walker without a start state")
	}
	if st.Steps < 0 {
		return fmt.Errorf("core: multi restore: negative walk steps")
	}
	m.res = &MultiResult{Results: map[int]*Result{}}
	for i, k := range m.sizes {
		acc := st.Accs[i]
		nt := graphlet.Count(k)
		if len(acc.Weights) != nt || len(acc.TypeCounts) != nt {
			return fmt.Errorf("core: multi restore: size %d accumulator has %d/%d types, want %d",
				k, len(acc.Weights), len(acc.TypeCounts), nt)
		}
		if acc.Done < 0 || acc.ValidSamples < 0 {
			return fmt.Errorf("core: multi restore: negative counters for size %d", k)
		}
		m.done[i] = acc.Done
		m.res.Results[k] = &Result{
			Config:       Config{K: k, D: m.d, CSS: m.css, NB: m.nb},
			Steps:        acc.Done,
			ValidSamples: acc.ValidSamples,
			Weights:      append([]float64(nil), acc.Weights...),
			TypeCounts:   append([]int64(nil), acc.TypeCounts...),
		}
	}
	m.res.Steps = m.minDone()
	m.rng = walk.NewRandAt(m.seed, st.RNGPos)
	m.space = walk.NewSpace(m.client, m.d)
	m.seeded = st.Seeded
	m.primed = st.Primed
	m.pushed = 0
	if !st.Seeded {
		m.w = nil
		return nil
	}
	ws := walk.WalkState{Steps: st.Steps, HasPrev: st.HasPrev}
	var err error
	if ws.Cur, err = stateOf(st.Cur, m.d); err != nil {
		return fmt.Errorf("core: multi restore current state: %w", err)
	}
	if st.HasPrev {
		if ws.Prev, err = stateOf(st.Prev, m.d); err != nil {
			return fmt.Errorf("core: multi restore previous state: %w", err)
		}
	}
	m.w = walk.Resume(m.space, ws, m.nb, m.rng.Rand)
	if st.Primed {
		m.pushed = int(st.Steps) + 1
		n := m.pushed
		if n > m.maxL {
			n = m.maxL
		}
		if len(st.Win) != n || len(st.Degs) != n {
			return fmt.Errorf("core: multi restore: ring of %d states/%d degrees, want %d",
				len(st.Win), len(st.Degs), n)
		}
		for i := 0; i < n; i++ {
			s, err := stateOf(st.Win[i], m.d)
			if err != nil {
				return fmt.Errorf("core: multi restore ring[%d]: %w", i, err)
			}
			if st.Degs[i] < 0 {
				return fmt.Errorf("core: multi restore: negative degree %d", st.Degs[i])
			}
			j := m.pushed - n + i
			slot := j % m.maxL
			m.win[slot] = s
			m.degs[slot] = st.Degs[i]
		}
		// Every pending window must still be coverable by the ring: size i
		// resumes at window done[i], whose oldest state index must not
		// precede pushed - n (the oldest retained state).
		for i := range m.sizes {
			if m.done[i] < m.pushed-n {
				return fmt.Errorf("core: multi restore: size %d window %d precedes retained ring (oldest state %d)",
					m.sizes[i], m.done[i], m.pushed-n)
			}
		}
	}
	return nil
}
