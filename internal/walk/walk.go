package walk

import "math/rand"

// Walk is a running random walk on a Space — either the simple random walk
// (uniform neighbor each step) or the non-backtracking variant of paper §4.2
// (never return to the immediately previous state unless it is the only
// neighbor).
type Walk struct {
	space Space
	rng   *rand.Rand
	nb    bool

	cur     State
	prev    State
	hasPrev bool
	steps   int64
}

// New starts a walk at a random valid state.
func New(space Space, nb bool, rng *rand.Rand) *Walk {
	w := new(Walk)
	w.Start(space, nb, rng)
	return w
}

// Start (re)starts w in place at a random valid state — New without the
// allocation, for a Walk embedded in a longer-lived struct.
func (w *Walk) Start(space Space, nb bool, rng *rand.Rand) {
	*w = Walk{space: space, rng: rng, nb: nb, cur: space.RandomState(rng)}
}

// Current returns the state the walker is at.
func (w *Walk) Current() State { return w.cur }

// Step advances one transition and returns the new state.
func (w *Walk) Step() State {
	var next State
	if w.nb && w.hasPrev {
		next = w.space.RandomNeighborAvoiding(w.cur, w.prev, w.rng)
	} else {
		next = w.space.RandomNeighbor(w.cur, w.rng)
	}
	w.prev = w.cur
	w.hasPrev = true
	w.cur = next
	w.steps++
	return next
}

// Burn advances n transitions without returning intermediate states (burn-in
// toward stationarity).
func (w *Walk) Burn(n int) {
	for i := 0; i < n; i++ {
		w.Step()
	}
}

// WalkState is the exportable position of a Walk: everything the transition
// rule reads besides the Space and the RNG. Together with the RNG stream
// position (walk.Rand), it makes a walk fully serializable — Resume
// reconstructs a walk that continues the original trajectory exactly.
type WalkState struct {
	Cur     State
	Prev    State
	HasPrev bool
	Steps   int64
}

// State exports the walk's current position.
func (w *Walk) State() WalkState {
	return WalkState{Cur: w.cur, Prev: w.prev, HasPrev: w.hasPrev, Steps: w.steps}
}

// Resume places w in place at the given exported state. The caller is
// responsible for supplying an rng positioned where the original walk's
// stream was (NewRandAt); the space may be a fresh instance — its caches are
// derived state.
func (w *Walk) Resume(space Space, st WalkState, nb bool, rng *rand.Rand) {
	*w = Walk{
		space: space, rng: rng, nb: nb,
		cur: st.Cur, prev: st.Prev, hasPrev: st.HasPrev, steps: st.Steps,
	}
}
