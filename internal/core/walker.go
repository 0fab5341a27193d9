package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// walker is the per-goroutine layer of the estimation engine: exactly one
// random walk on G(d), a ring of its last max(l_k) states that serves every
// target size's window, and one private accumulator per size. A walker owns
// its walk.Space instance (spaceD keeps a ring of derived records and a cache
// of computed ones) and its RNG, so it never shares mutable state with
// sibling walkers — the only shared object is the access.Client, which is
// required to be safe for concurrent use.
//
// The scheduling invariant is index-based: pushed counts the walk states
// seen so far (state 0 is the first state after burn-in, so pushed == walk
// steps - BurnIn + 1 once primed), state j lives in ring slots j % maxL and
// j % maxL + maxL, and accs[i].Done counts the windows size i has
// accumulated — size i's next window covers states [Done, Done+l_i-1] and is
// ready as soon as pushed >= Done+l_i. The walk is lazy: it takes a
// transition only when some size still needs a state, so a run never steps
// past its last window. The largest-l size consumes a window the moment it is
// ready and no size ever trails it, so the ring always retains every state a
// pending window needs.
//
// A walker is its own arena, so that sibling walkers never write to a shared
// cache line (the one-line rule, pinned by TestWalkersShareNoCacheLine):
// everything the step path writes — the walk.Walk, the walk.Rand with its
// draw counter, the state ring and its degrees, the accumulators with every
// size's Weights and TypeCounts, and the window's node scratch — is held by
// value in the one walker allocation, with the slices carved from its fixed
// arrays, and a cacheLine pad at each end keeps neighboring allocations off
// the lines those writes hit. Two written objects stay outside: spaceD
// (d >= 3), which pads itself by a line at each end since its record ring is
// written every step, and math/rand's 4872-byte generator state behind the
// RNG, which is served from the 5376-byte size class, whose 64-aligned slots
// share no line.
type walker struct {
	_ [cacheLine]byte

	cfg    MultiConfig
	client access.Client
	space  walk.Space
	seed   int64     // walker-specific seed (walkerSeed); rebuilds rng on restore
	rng    walk.Rand // position-counted so checkpoints can snapshot the stream
	w      walk.Walk // meaningful once seeded

	sizes []sizeParams // per target size, in cfg.Sizes order
	maxL  int

	// Mirrored ring of the last maxL <= MaxK states and their G(d) degrees
	// (place), so that every window is one slice of it (window).
	win    [2 * graphlet.MaxK]walk.State
	degs   [2 * graphlet.MaxK]int
	pushed int // states pushed since reset/restore

	nodes [graphlet.MaxK + 1]int32 // windowSample's node scratch

	// accs are the walker-private accumulators, indexed like sizes and merged
	// by the ensemble: a view of accBuf, each size's Weights and TypeCounts a
	// view of its own range of weightBuf and countBuf (a walker's sizes are
	// distinct, so maxTypes entries cover them). starAcc is the
	// non-induced-star functional Σ C(d_v,3)/d_v (only maintained under
	// cfg.RecoverStars).
	accs      []SizeAcc
	starAcc   float64
	accBuf    [graphlet.MaxK - 2]SizeAcc
	weightBuf [maxTypes]float64
	countBuf  [maxTypes]int64

	seeded bool // start state drawn
	primed bool // burn-in done, state 0 pushed

	_ [cacheLine]byte
}

// cacheLine is the coherence granule the walker arena pads against.
const cacheLine = 64

// maxTypes is the number of graphlet types of sizes 3..MaxK together.
const maxTypes = 2 + 6 + 21

// sizeParams holds what a target size fixes up front.
type sizeParams struct {
	k, l   int
	alpha  []int64              // α per type (paper order)
	chains *graphlet.ChainTable // CSS chains per adjacency code; nil unless CSS and l > 2
}

// newSizeParams fixes size k's window length, α row and CSS chain table for
// a walk on G(d).
func newSizeParams(k, d int, css bool) sizeParams {
	cat := graphlet.Catalog(k)
	s := sizeParams{k: k, l: k - d + 1, alpha: make([]int64, len(cat))}
	for t := range cat {
		s.alpha[t] = cat[t].Alpha[d]
	}
	if css && s.l > 2 {
		s.chains = graphlet.Chains(k, d)
	}
	return s
}

// newWalker builds one walker with its own space and RNG. seed is the
// walker-specific seed derived by the ensemble (walkerSeed).
func newWalker(client access.Client, cfg MultiConfig, seed int64) *walker {
	wk := &walker{
		cfg:    cfg,
		client: client,
		space:  walk.NewSpace(client, cfg.D),
		seed:   seed,
		sizes:  make([]sizeParams, len(cfg.Sizes)),
	}
	wk.rng.InitAt(seed, 0)
	wk.accs = wk.accBuf[:len(cfg.Sizes)]
	off := 0
	for i, k := range cfg.Sizes {
		s := newSizeParams(k, cfg.D, cfg.CSS)
		wk.maxL = max(wk.maxL, s.l)
		wk.sizes[i] = s
		end := off + len(s.alpha)
		wk.accs[i] = SizeAcc{Weights: wk.weightBuf[off:end:end], TypeCounts: wk.countBuf[off:end:end]}
		off = end
	}
	return wk
}

// reset prepares the walker for a fresh run: zeroed accumulators and a
// restarted walk (the RNG stream continues across repeated runs).
func (wk *walker) reset() {
	for i := range wk.accs {
		a := &wk.accs[i]
		a.Done, a.ValidSamples = 0, 0
		clear(a.Weights)
		clear(a.TypeCounts)
	}
	wk.starAcc = 0
	wk.seeded = false
	wk.primed = false
	wk.pushed = 0
}

// ensureSeeded draws the walk's start state exactly once per reset. This is
// the only client call whose order must be walker-index-deterministic
// (clients like the HTTP crawler draw seeds from shared server-side state),
// so the ensemble calls it sequentially before the concurrent stages;
// burn-in and the walk itself use only walker-private state and stay in the
// concurrent phase.
func (wk *walker) ensureSeeded() {
	if !wk.seeded {
		wk.w.Start(wk.space, wk.cfg.NB, &wk.rng.Rand)
		wk.seeded = true
	}
}

// start primes the walker: start state drawn (if the ensemble has not
// already done so sequentially), burn-in applied, and the state it ends on
// pushed as state 0. Further states are pushed lazily by the run loop, only
// when a window needs them.
func (wk *walker) start() {
	wk.ensureSeeded()
	if wk.primed {
		return
	}
	wk.w.Burn(wk.cfg.BurnIn)
	wk.pushed = 0
	wk.push(wk.w.Current())
	wk.primed = true
}

// cancelCheckEvery is the step granularity of cooperative cancellation: a
// walker polls its context once per this many transitions, so a cancel stops
// a run within a few hundred transitions even when the whole budget is one
// barrier-free stage (e.g. a very slow crawl with no snapshot callback).
// The poll touches no walker state — no RNG draw, no window mutation — so
// runs that are not cancelled stay byte-identical to the unpolled engine.
const cancelCheckEvery = 256

// run advances every size by `count` windows (all sizes stand at the same
// window count when a stage starts), polling ctx every cancelCheckEvery walk
// transitions. A nil-Done context (context.Background) is never polled,
// keeping the hot loop overhead-free for plain Run calls. Each pass
// accumulates the ready window of every size still short of the target and
// then, if any size remains short, takes one transition.
func (wk *walker) run(ctx context.Context, count int) error {
	wk.start()
	target := wk.accs[0].Done + count
	done := ctx.Done()
	for steps := 0; ; steps++ {
		pending := false
		for i := range wk.sizes {
			a := &wk.accs[i]
			if a.Done >= target {
				continue
			}
			if s := &wk.sizes[i]; a.Done+s.l <= wk.pushed {
				if err := wk.accumulate(s, a); err != nil {
					return err
				}
				a.Done++
			}
			if a.Done < target {
				pending = true
			}
		}
		if !pending {
			return nil
		}
		if done != nil && steps%cancelCheckEvery == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		wk.push(wk.w.Step())
	}
}

func (wk *walker) push(s walk.State) {
	wk.place(wk.pushed, s, wk.space.StateDegree(s))
	wk.pushed++
}

// place stores state j and its degree at both of its mirrored ring slots.
func (wk *walker) place(j int, s walk.State, deg int) {
	slot := j % wk.maxL
	wk.win[slot], wk.win[slot+wk.maxL] = s, s
	wk.degs[slot], wk.degs[slot+wk.maxL] = deg, deg
}

// window returns states [j, j+l) and their degrees, oldest first, as views
// of the ring; they must still be retained (j >= pushed-maxL).
func (wk *walker) window(j, l int) ([]walk.State, []int) {
	slot := j % wk.maxL
	return wk.win[slot : slot+l], wk.degs[slot : slot+l]
}

// accumulate folds size s's next window (states [Done, Done+l-1]) into its
// accumulator. A size's accumulator trajectory depends only on the walk,
// never on which other sizes share it.
func (wk *walker) accumulate(s *sizeParams, a *SizeAcc) error {
	states, degs := wk.window(a.Done, s.l)
	if wk.cfg.RecoverStars {
		wk.starAcc += starTerm(degs[s.l-1])
	}
	typ, weight, err := windowSample(wk.client, wk.space, s, wk.cfg.NB, states, degs, wk.nodes[:0])
	if err != nil || typ < 0 {
		return err
	}
	a.ValidSamples++
	a.TypeCounts[typ]++
	a.Weights[typ] += weight
	return nil
}

// starTerm is the non-induced-star functional of a window's newest visited
// node (stationary probability ∝ degree; on a d = 1 walk the state degree is
// the node degree): C(d,3)/d simplifies to (d-1)(d-2)/6.
func starTerm(deg int) float64 {
	d := float64(deg)
	return (d - 1) * (d - 2) / 6
}

// windowSample is the estimator on one window of l = k-d+1 consecutive walk
// states (oldest first) and their G(d) degrees: if the states cover exactly
// k distinct nodes, it classifies the induced subgraph and returns its type
// with the re-weighted contribution 1/(α·π̃e), or 1/p̃ under CSS; otherwise
// the sample is invalid (Figure 3) and the type is -1. A walk's window covers
// at most k nodes, but a restored ring is not checked for adjacency, so
// collection into nodes (capacity k+1) stops at the (k+1)-th distinct node.
func windowSample(client access.Client, space walk.Space, s *sizeParams, nb bool, states []walk.State, degs []int, nodes []int32) (int, float64, error) {
gather:
	for _, st := range states {
		for j := 0; j < st.Len(); j++ {
			if x := st.Node(j); !slices.Contains(nodes, x) {
				nodes = append(nodes, x)
				if len(nodes) > s.k {
					break gather
				}
			}
		}
	}
	if len(nodes) != s.k {
		return -1, 0, nil
	}
	code := windowCode(client, space, s.k, nodes, states)
	typ := graphlet.ClassifyCode(s.k, code)
	if typ < 0 {
		return -1, 0, fmt.Errorf("core: window %v classified as disconnected", nodes)
	}
	if s.chains != nil {
		p := samplingProbabilityWith(space, s.chains, nb, nodes, code)
		if p <= 0 {
			return -1, 0, fmt.Errorf("core: zero sampling probability for type g%d_%d", s.k, typ+1)
		}
		return typ, 1 / p, nil
	}
	if s.alpha[typ] == 0 {
		return -1, 0, fmt.Errorf("core: walk produced type g%d_%d with alpha = 0 (d=%d)", s.k, typ+1, s.k-s.l+1)
	}
	return typ, 1 / (float64(s.alpha[typ]) * pieTilde(nb, degs)), nil
}

// pieTilde computes π̃e(X^(l)) = 2|R(d)|·πe for a window with the given
// state degrees (Equation 2): deg(X_1) for l = 1, 1 for l = 2, and the
// product of inverse degrees of the interior states for l > 2. Under NB,
// nominal degrees are used (§4.2).
func pieTilde(nb bool, degs []int) float64 {
	switch len(degs) {
	case 1:
		// Marginal state probability d_X/2|R|; NB-SRW preserves it, so the
		// actual degree is used even under NB.
		return float64(degs[0])
	case 2:
		return 1
	}
	p := 1.0
	for _, d := range degs[1 : len(degs)-1] {
		if nb {
			d = nominal(d)
		}
		p *= 1 / float64(d)
	}
	return p
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
		RNGPos:  wk.rng.Pos(),
		Seeded:  wk.seeded,
		Primed:  wk.primed,
		Accs:    make([]SizeAcc, len(wk.accs)),
		StarAcc: wk.starAcc,
	}
	for i, a := range wk.accs {
		a.Weights = append([]float64(nil), a.Weights...)
		a.TypeCounts = append([]int64(nil), a.TypeCounts...)
		st.Accs[i] = a
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
		// The ring holds the last min(pushed, maxL) states; export them
		// oldest-first so restore can re-place state j at slot j % maxL.
		n := min(wk.pushed, wk.maxL)
		states, degs := wk.window(wk.pushed-n, n)
		st.Win = make([][]int32, n)
		st.Degs = append([]int(nil), degs...)
		for i, s := range states {
			st.Win[i] = s.Nodes(nil)
		}
	}
	return st
}

// restore rebuilds the walker from an exported state: a fresh space (its
// caches are derived), the RNG fast-forwarded to the recorded stream
// position, the walk at its recorded position, the state ring re-placed at
// canonical slots, and the per-size accumulators copied into the walker's
// own arrays (st is never aliased). On error the walker may be left
// partially mutated; callers discard the whole estimator then.
func (wk *walker) restore(st WalkerState) error {
	if len(st.Accs) != len(wk.sizes) {
		return fmt.Errorf("core: restore: %d size accumulators, want %d", len(st.Accs), len(wk.sizes))
	}
	if st.Primed && !st.Seeded {
		return fmt.Errorf("core: restore: primed walker without a start state")
	}
	if st.Steps < 0 {
		return fmt.Errorf("core: restore: negative walk steps")
	}
	for i, s := range wk.sizes {
		acc := st.Accs[i]
		if nt := len(s.alpha); len(acc.Weights) != nt || len(acc.TypeCounts) != nt {
			return fmt.Errorf("core: restore: size %d accumulator has %d/%d types, want %d",
				s.k, len(acc.Weights), len(acc.TypeCounts), nt)
		}
		if acc.Done < 0 || acc.ValidSamples < 0 {
			return fmt.Errorf("core: restore: negative counters for size %d", s.k)
		}
		a := &wk.accs[i]
		a.Done, a.ValidSamples = acc.Done, acc.ValidSamples
		copy(a.Weights, acc.Weights)
		copy(a.TypeCounts, acc.TypeCounts)
	}
	wk.starAcc = st.StarAcc
	wk.rng.InitAt(wk.seed, st.RNGPos)
	wk.space = walk.NewSpace(wk.client, wk.cfg.D)
	wk.seeded = st.Seeded
	wk.primed = st.Primed
	wk.pushed = 0
	if !st.Seeded {
		wk.w = walk.Walk{}
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
	wk.w.Resume(wk.space, ws, wk.cfg.NB, &wk.rng.Rand)
	if !st.Primed {
		return nil
	}
	// State 0 is the one the burn-in ended on. A snapshot of the eager
	// pre-merge single-size walker (a GEST blob) stands one transition
	// further than this walker would — it holds its next window already —
	// which the same arithmetic covers: that window is simply ready.
	wk.pushed = int(st.Steps) - wk.cfg.BurnIn + 1
	if wk.pushed < 1 {
		return fmt.Errorf("core: restore: primed walker at %d steps is inside its %d-step burn-in", st.Steps, wk.cfg.BurnIn)
	}
	n := min(wk.pushed, wk.maxL)
	if len(st.Win) != n || len(st.Degs) != n {
		return fmt.Errorf("core: restore: ring of %d states/%d degrees, want %d",
			len(st.Win), len(st.Degs), n)
	}
	for i := 0; i < n; i++ {
		s, err := stateOf(st.Win[i], wk.cfg.D)
		if err != nil {
			return fmt.Errorf("core: restore ring[%d]: %w", i, err)
		}
		if st.Degs[i] < 0 {
			return fmt.Errorf("core: restore: negative degree %d", st.Degs[i])
		}
		wk.place(wk.pushed-n+i, s, st.Degs[i])
	}
	// Every pending window must still be coverable by the ring: size i
	// resumes at window Done, whose oldest state index must not precede
	// pushed - n (the oldest retained state).
	for i, s := range wk.sizes {
		if wk.accs[i].Done < wk.pushed-n {
			return fmt.Errorf("core: restore: size %d window %d precedes retained ring (oldest state %d)",
				s.k, wk.accs[i].Done, wk.pushed-n)
		}
	}
	return nil
}
