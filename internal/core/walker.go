package core

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// walker is the per-goroutine layer of the estimation engine: exactly one
// random walk on G(d), its sliding window of the last l states, and a private
// Result accumulator. A walker owns its walk.Space instance (spaceD keeps a
// mutable neighbor cache and scratch buffers) and its rand.Rand, so it never
// shares mutable state with sibling walkers — the only shared object is the
// access.Client, which is required to be safe for concurrent use.
//
// The ensemble layer (ensemble.go) spawns Config.Walkers of these and merges
// their Results in walker-index order; see Result.Merge for why summation is
// the exact combination rule.
type walker struct {
	cfg    Config
	client access.Client
	space  walk.Space
	w      *walk.Walk
	seed   int64      // walker-specific seed (walkerSeed); rebuilds rng on restore
	rng    *walk.Rand // position-counted so checkpoints can snapshot the stream

	l      int
	alpha  []int64              // α per type (paper order)
	chains *graphlet.ChainTable // CSS chains per adjacency code; nil unless CSS and l > 2

	// Sliding window of the last l states with their G(d) degrees.
	win    []walk.State
	degs   []int
	winLen int
	ring   int // index of the oldest window entry

	// Scratch buffer.
	unionNodes []int32

	// res is the walker-private accumulator; merged by the ensemble.
	res    *Result
	seeded bool // start state drawn
	primed bool // burn-in done, window filled
}

// newWalker builds one walker with its own space and RNG. seed is the
// walker-specific seed derived by the ensemble (walkerSeed).
func newWalker(client access.Client, cfg Config, seed int64) *walker {
	l := cfg.K - cfg.D + 1
	cat := graphlet.Catalog(cfg.K)
	alpha := make([]int64, len(cat))
	for i := range cat {
		alpha[i] = cat[i].Alpha[cfg.D]
	}
	wk := &walker{
		cfg:    cfg,
		client: client,
		space:  walk.NewSpace(client, cfg.D),
		seed:   seed,
		rng:    walk.NewRand(seed),
		l:      l,
		alpha:  alpha,
		win:    make([]walk.State, l),
		degs:   make([]int, l),
	}
	if cfg.CSS && l > 2 {
		wk.chains = graphlet.Chains(cfg.K, cfg.D)
	}
	return wk
}

// reset prepares the walker for a fresh run: a new private Result and a
// restarted walk (the RNG stream continues, like repeated Run calls always
// did).
func (wk *walker) reset() {
	wk.res = &Result{
		Config:     wk.cfg,
		Weights:    make([]float64, len(wk.alpha)),
		TypeCounts: make([]int64, len(wk.alpha)),
	}
	wk.seeded = false
	wk.primed = false
}

// ensureSeeded draws the walk's start state exactly once per reset. This is
// the only client call whose order must be walker-index-deterministic
// (clients like the HTTP crawler draw seeds from shared server-side state),
// so the ensemble calls it sequentially before the concurrent stages;
// burn-in and window fill use only walker-private state and stay in the
// concurrent phase.
func (wk *walker) ensureSeeded() {
	if !wk.seeded {
		wk.w = walk.New(wk.space, wk.cfg.NB, wk.rng.Rand)
		wk.seeded = true
	}
}

// cancelCheckEvery is the step granularity of cooperative cancellation: a
// walker polls its context once per this many windows, so a cancel stops a
// run within a few hundred transitions even when the whole budget is one
// barrier-free stage (e.g. a very slow crawl with no snapshot callback).
// The poll touches no walker state — no RNG draw, no window mutation — so
// runs that are not cancelled stay byte-identical to the unpolled engine.
const cancelCheckEvery = 256

// run processes `count` windows into the walker's private Result, polling
// ctx every cancelCheckEvery windows. A nil-Done context (context.Background)
// is never polled, keeping the hot loop overhead-free for plain Run calls.
func (wk *walker) run(ctx context.Context, count int) error {
	wk.start()
	done := ctx.Done()
	for j := 0; j < count; j++ {
		if done != nil && j%cancelCheckEvery == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if err := wk.accumulate(wk.res); err != nil {
			return err
		}
		if wk.cfg.RecoverStars {
			wk.accumulateStars()
			wk.res.applyStarRecovery()
		}
		wk.advance()
		wk.res.Steps++
	}
	return nil
}

// start brings the walker to a runnable state: start state drawn (if the
// ensemble has not already done so sequentially), burn-in applied, first
// window filled.
func (wk *walker) start() {
	wk.ensureSeeded()
	if wk.primed {
		return
	}
	wk.w.Burn(wk.cfg.BurnIn)
	wk.winLen = 0
	wk.ring = 0
	wk.push(wk.w.Current())
	for wk.winLen < wk.l {
		wk.push(wk.w.Step())
	}
	wk.primed = true
}

// advance slides the window by one walk transition.
func (wk *walker) advance() { wk.push(wk.w.Step()) }

func (wk *walker) push(s walk.State) {
	if wk.winLen < wk.l {
		wk.win[wk.winLen] = s
		wk.degs[wk.winLen] = wk.space.StateDegree(s)
		wk.winLen++
		return
	}
	wk.win[wk.ring] = s
	wk.degs[wk.ring] = wk.space.StateDegree(s)
	wk.ring = (wk.ring + 1) % wk.l
}

// windowAt returns the i-th window entry in walk order (0 = oldest).
func (wk *walker) windowAt(i int) (walk.State, int) {
	j := (wk.ring + i) % wk.l
	return wk.win[j], wk.degs[j]
}

// accumulateStars adds the non-induced-star functional of the newest visited
// node (stationary probability ∝ degree): C(d_v, 3)/d_v.
func (wk *walker) accumulateStars() {
	_, deg := wk.windowAt(wk.l - 1)
	d := float64(deg) // d = 1 walk: the state degree is the node degree
	// C(d,3)/d simplifies to (d-1)(d-2)/6.
	wk.res.StarAcc += (d - 1) * (d - 2) / 6
}

// accumulate processes the current window: if it covers exactly k distinct
// nodes, classify the induced subgraph and add its re-weighted contribution.
func (wk *walker) accumulate(res *Result) error {
	k := wk.cfg.K
	wk.unionNodes = wk.unionNodes[:0]
	for i := 0; i < wk.l; i++ {
		s, _ := wk.windowAt(i)
		for j := 0; j < s.Len(); j++ {
			x := s.Node(j)
			found := false
			for _, y := range wk.unionNodes {
				if y == x {
					found = true
					break
				}
			}
			if !found {
				wk.unionNodes = append(wk.unionNodes, x)
				if len(wk.unionNodes) > k {
					return nil // over-covering impossible; defensive
				}
			}
		}
	}
	if len(wk.unionNodes) != k {
		return nil // invalid sample (Figure 3)
	}
	res.ValidSamples++

	nodes := wk.unionNodes
	code := windowCode(wk.client, wk.space, k, wk.l, nodes, wk.windowAt)
	typ := graphlet.ClassifyCode(k, code)
	if typ < 0 {
		return fmt.Errorf("core: window %v classified as disconnected", nodes)
	}
	res.TypeCounts[typ]++

	var weight float64
	if wk.chains != nil {
		p := samplingProbabilityWith(wk.space, wk.chains, wk.cfg.NB, nodes, code)
		if p <= 0 {
			return fmt.Errorf("core: zero sampling probability for type %d", typ+1)
		}
		weight = 1 / p
	} else {
		if wk.alpha[typ] == 0 {
			return fmt.Errorf("core: walk produced type %d with alpha = 0 (d=%d)", typ+1, wk.cfg.D)
		}
		weight = 1 / (float64(wk.alpha[typ]) * wk.pieTilde())
	}
	res.Weights[typ] += weight
	return nil
}

// pieTilde computes π̃e(X^(l)) = 2|R(d)|·πe for the current window
// (Equation 2): deg(X_1) for l = 1, 1 for l = 2, and the product of inverse
// degrees of the interior states for l > 2. Under NB, nominal degrees are
// used (§4.2).
func (wk *walker) pieTilde() float64 {
	switch wk.l {
	case 1:
		// Marginal state probability d_X/2|R|; NB-SRW preserves it, so the
		// actual degree is used even under NB.
		_, d := wk.windowAt(0)
		return float64(d)
	case 2:
		return 1
	}
	p := 1.0
	for i := 1; i < wk.l-1; i++ {
		_, d := wk.windowAt(i)
		p *= 1 / wk.adjDeg(d)
	}
	return p
}

func (wk *walker) adjDeg(d int) float64 {
	if wk.cfg.NB {
		return float64(nominal(d))
	}
	return float64(d)
}

// nominal maps a state degree to the NB-SRW nominal degree.
func nominal(d int) int {
	if d <= 1 {
		return 1
	}
	return d - 1
}

// snapshot exports the walker's complete resumable state. Only safe while
// the walker is quiescent (between ensemble stages); read-only, so taking a
// snapshot never perturbs the run.
func (wk *walker) snapshot() WalkerState {
	st := WalkerState{
		RNGPos: wk.rng.Pos(),
		Seeded: wk.seeded,
		Primed: wk.primed,
	}
	if wk.res != nil {
		st.ResSteps = wk.res.Steps
		st.ValidSamples = wk.res.ValidSamples
		st.Weights = append([]float64(nil), wk.res.Weights...)
		st.TypeCounts = append([]int64(nil), wk.res.TypeCounts...)
		st.StarAcc = wk.res.StarAcc
	} else {
		st.Weights = make([]float64, len(wk.alpha))
		st.TypeCounts = make([]int64, len(wk.alpha))
	}
	if wk.seeded {
		ws := wk.w.State()
		st.Steps = ws.Steps
		st.HasPrev = ws.HasPrev
		st.Cur = ws.Cur.Nodes(nil)
		if ws.HasPrev {
			st.Prev = ws.Prev.Nodes(nil)
		}
	}
	if wk.primed {
		st.Win = make([][]int32, wk.l)
		st.Degs = make([]int, wk.l)
		for i := 0; i < wk.l; i++ {
			s, d := wk.windowAt(i)
			st.Win[i] = s.Nodes(nil)
			st.Degs[i] = d
		}
	}
	return st
}

// restore rebuilds the walker from an exported state: a fresh space (its
// caches are derived), the RNG fast-forwarded to the recorded stream
// position, the walk at its recorded position, the window in canonical ring
// order, and the private accumulator. On error the walker may be left
// partially mutated; callers discard the whole estimator then.
func (wk *walker) restore(st WalkerState) error {
	if len(st.Weights) != len(wk.alpha) || len(st.TypeCounts) != len(wk.alpha) {
		return fmt.Errorf("core: restore: accumulator has %d/%d types, want %d",
			len(st.Weights), len(st.TypeCounts), len(wk.alpha))
	}
	if st.ResSteps < 0 || st.ValidSamples < 0 || st.Steps < 0 {
		return fmt.Errorf("core: restore: negative counters")
	}
	if st.Primed && !st.Seeded {
		return fmt.Errorf("core: restore: primed walker without a start state")
	}
	wk.res = &Result{
		Config:       wk.cfg,
		Steps:        st.ResSteps,
		ValidSamples: st.ValidSamples,
		Weights:      append([]float64(nil), st.Weights...),
		TypeCounts:   append([]int64(nil), st.TypeCounts...),
		StarAcc:      st.StarAcc,
	}
	if wk.cfg.RecoverStars {
		wk.res.applyStarRecovery()
	}
	wk.rng = walk.NewRandAt(wk.seed, st.RNGPos)
	wk.space = walk.NewSpace(wk.client, wk.cfg.D)
	wk.seeded = st.Seeded
	wk.primed = st.Primed
	wk.winLen, wk.ring = 0, 0
	if !st.Seeded {
		wk.w = nil
		return nil
	}
	ws := walk.WalkState{Steps: st.Steps, HasPrev: st.HasPrev}
	var err error
	if ws.Cur, err = stateOf(st.Cur, wk.cfg.D); err != nil {
		return fmt.Errorf("core: restore current state: %w", err)
	}
	if st.HasPrev {
		if ws.Prev, err = stateOf(st.Prev, wk.cfg.D); err != nil {
			return fmt.Errorf("core: restore previous state: %w", err)
		}
	}
	wk.w = walk.Resume(wk.space, ws, wk.cfg.NB, wk.rng.Rand)
	if st.Primed {
		if len(st.Win) != wk.l || len(st.Degs) != wk.l {
			return fmt.Errorf("core: restore: window of %d states/%d degrees, want %d",
				len(st.Win), len(st.Degs), wk.l)
		}
		for i := 0; i < wk.l; i++ {
			s, err := stateOf(st.Win[i], wk.cfg.D)
			if err != nil {
				return fmt.Errorf("core: restore window[%d]: %w", i, err)
			}
			if st.Degs[i] < 0 {
				return fmt.Errorf("core: restore: negative degree %d", st.Degs[i])
			}
			wk.win[i] = s
			wk.degs[i] = st.Degs[i]
		}
		// Canonical ring orientation: windowAt(i) = win[(ring+i)%l], so
		// restoring oldest-first with ring = 0 reproduces the same window
		// sequence regardless of where the original ring index stood.
		wk.winLen, wk.ring = wk.l, 0
	}
	return nil
}
