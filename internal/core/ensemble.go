package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// The ensemble layer runs MultiConfig.Walkers independent walkers concurrently
// and merges their private accumulators. Three invariants make the merged
// output byte-identical across runs and GOMAXPROCS settings:
//
//  1. Seeds: walker i's RNG seed is a pure function of (MultiConfig.Seed, i)
//     (walkerSeed), so every walker's trajectory is fixed up front.
//  2. Budgets: the n-window budget is split by walkerQuota, a pure function
//     of (n, W, i), so each walker processes a fixed window set — and a
//     fixed share of every checkpoint target.
//  3. Merging: accumulators are summed in walker-index order (addWalker), so
//     floating-point addition order never depends on goroutine scheduling.
//
// Nothing couples the walkers between checkpoints, so a checkpoint is no
// barrier: each walker runs its whole budget on its own goroutine, snapshots
// itself at its quota of every target and walks on (runFree), and the
// caller's goroutine assembles each target's state from the walkers' and
// hands it out in target order, at most checkpointLead targets behind the
// fastest walker.

// walkerCount normalizes MultiConfig.Walkers: 0 (the zero value) means one walker.
func walkerCount(w int) int {
	if w <= 1 {
		return 1
	}
	return w
}

// walkerSeed derives walker i's RNG seed from the configured seed. Walker 0
// uses the seed unchanged, so a single-walker ensemble reproduces the
// historical single-threaded runs exactly; the rest get splitmix64-scrambled
// streams, which are well separated even for adjacent seeds.
func walkerSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// walkerQuota returns how many of the first `total` windows walker i of
// nWalkers owns: an even split with the remainder assigned to the lowest
// indices. It is monotone in total, which lets checkpointed runs advance each
// walker by quota differences.
func walkerQuota(total, nWalkers, i int) int {
	q := total / nWalkers
	if i < total%nWalkers {
		q++
	}
	return q
}

// checkpointLead is how many checkpoint targets a walker may run ahead of
// the callback: with the callback busy at target j, every walker still
// reaches target j+checkpointLead and then waits. The lead lets the walkers
// ride out a slow callback (a journal write, a frame on a slow wire) and a
// sibling that lags them, each up to this many checkpoint intervals, while
// a run holds at most checkpointLead snapshots per walker that the callback
// has not yet taken. It is a constant, not a knob: it moves only memory and
// overlap, never a byte of any state.
const checkpointLead = 4

// runInline runs the single walker on the caller's goroutine to each target
// in turn (from is the target it stands at), handing fn the snapshot at
// every target. Here and in runFree, quotas count the full ensemble's
// walkers at global indices, so a partition advances its walkers exactly as
// a full local run would.
func (m *MultiEstimator) runInline(ctx context.Context, from int, targets []int, fn func(*EnsembleState)) error {
	tw := walkerCount(m.cfg.Walkers)
	prev := from
	for _, target := range targets {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := prev, target
		if err := runWalkerGuarded(0, func() error {
			return m.walkers[0].run(ctx, walkerQuota(hi, tw, m.lo)-walkerQuota(lo, tw, m.lo))
		}); err != nil {
			return err
		}
		prev = target
		m.done = target
		if fn != nil {
			fn(m.Snapshot())
		}
	}
	return nil
}

// errStopped is what a walker returns when the run stops delivering states
// before it reaches its last target: a sibling failed, or the run was
// cancelled. It is never the run's error.
var errStopped = errors.New("core: walker stopped")

// freeRun is what a run's free walkers share.
type freeRun struct {
	m       *MultiEstimator
	ctx     context.Context
	from    int   // the target every walker stands at when the run starts
	targets []int // the targets past from, ascending
	// stop is closed when the caller stops taking states, so that no walker
	// waits on its lane forever.
	stop chan struct{}
	wg   sync.WaitGroup
}

// lane is one walker's channel to the caller and its outcome.
type lane struct {
	states chan WalkerState
	err    error
}

// runFree runs every walker through its whole share of the targets on a
// goroutine of its own. At each target a walker snapshots itself and hands
// the state down its lane, then keeps walking; the caller's goroutine takes
// one state from every lane, in walker-index order, assembles the target's
// EnsembleState and calls fn — strictly in target order, concurrently with
// the walkers. The walk is lazy (run stops on the window that meets the
// quota, without a further transition), so a walker's state at its quota of
// a target never depends on where its siblings stand: each state is exactly
// the one an ensemble-wide barrier at that target would have seen.
//
// A lane holds checkpointLead-1 states and a blocked walker one more, which
// is the lead. When a walker fails the caller stops taking states, and the
// rest stop at their next target; that failure, not the stop it causes, is
// the error returned. With fn == nil the walkers run their one target to the
// end. Every walker has exited when runFree returns.
func (m *MultiEstimator) runFree(ctx context.Context, from int, targets []int, fn func(*EnsembleState)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := &freeRun{m: m, ctx: ctx, from: from, targets: targets}
	lanes := make([]lane, len(m.walkers))
	if fn != nil {
		r.stop = make(chan struct{})
		for i := range lanes {
			lanes[i].states = make(chan WalkerState, checkpointLead-1)
		}
	}
	r.wg.Add(len(lanes))
	for i := range lanes {
		go r.walk(i, &lanes[i])
	}
	// A panicking callback unwinds through here: no walker outlives the run.
	defer r.wg.Wait()
	all := fn == nil || r.deliver(lanes, fn)
	r.wg.Wait()
	if err := r.outcome(lanes); err != nil {
		return err
	}
	if !all {
		return ctx.Err()
	}
	m.done = targets[len(targets)-1]
	return nil
}

// deliver takes one state per lane for each target in turn and hands fn the
// assembled EnsembleState, until a lane closes short or the run's context is
// done. It reports whether every target was delivered; unless it was, it
// closes stop (also when fn panics), so no walker waits on its lane forever.
func (r *freeRun) deliver(lanes []lane, fn func(*EnsembleState)) (all bool) {
	defer func() {
		if !all {
			close(r.stop)
		}
	}()
	for _, target := range r.targets {
		st := &EnsembleState{Config: r.m.cfg, WindowsDone: target, Walkers: make([]WalkerState, len(lanes))}
		for i := range lanes {
			ws, ok := <-lanes[i].states
			if !ok {
				return false // walker i stopped short; its error is in its lane
			}
			st.Walkers[i] = ws
		}
		if r.ctx.Err() != nil {
			return false
		}
		r.m.done = target
		fn(st)
	}
	return true
}

// walk runs walker i through every target, handing its state down the lane
// at each when the run takes states (the lane has a channel). A panic
// becomes the walker's error.
func (r *freeRun) walk(i int, l *lane) {
	defer r.wg.Done()
	if l.states != nil {
		defer close(l.states)
	}
	l.err = runWalkerGuarded(i, func() error {
		wk, tw, g := r.m.walkers[i], walkerCount(r.m.cfg.Walkers), r.m.lo+i
		prev := walkerQuota(r.from, tw, g)
		for _, target := range r.targets {
			q := walkerQuota(target, tw, g)
			if err := wk.run(r.ctx, q-prev); err != nil {
				return err
			}
			prev = q
			if l.states == nil {
				continue
			}
			select {
			case l.states <- wk.snapshot():
			case <-r.stop:
				return errStopped
			case <-r.ctx.Done():
				return r.ctx.Err()
			}
		}
		return nil
	})
}

// outcome is the walkers' error once every one has exited: the first
// failure in walker-index order, else the cancellation that stopped one
// short, else nil.
func (r *freeRun) outcome(lanes []lane) error {
	short := false
	for _, l := range lanes {
		switch {
		case l.err == nil:
		case l.err == errStopped || (r.ctx.Err() != nil && errors.Is(l.err, r.ctx.Err())):
			short = true
		default:
			return l.err
		}
	}
	if short {
		return r.ctx.Err()
	}
	return nil
}

// runWalkerGuarded invokes fn for walker i, converting a panic into that
// walker's error. A parent cannot catch a goroutine's panic, so the
// conversion happens here rather than at the run entry (RunCheckpointsCtx),
// for the inline walker too, so the error reads the same either way.
func runWalkerGuarded(i int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: walker %d: %v", i, r)
		}
	}()
	return fn()
}

// checkpointTargets returns the cumulative window counts past `from` at
// which the run hands out a state: every, 2·every, … when snapshots are
// requested, and always the final n (unless from is n already). With no
// callback (or every <= 0) the whole budget is one target.
func checkpointTargets(from, n, every int, snapshots bool) []int {
	var targets []int
	if snapshots && every > 0 {
		for s := (from/every + 1) * every; s <= n; s += every {
			targets = append(targets, s)
		}
	}
	if from < n && (len(targets) == 0 || targets[len(targets)-1] != n) {
		targets = append(targets, n)
	}
	return targets
}
