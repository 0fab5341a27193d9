package core

import (
	"fmt"
	"math/bits"

	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// Window classification reads everything it needs from the walker's ring:
// the last maxL walk states, their G(d) degrees, and the adjacency of their
// union nodes, carried from one walk position to the next.
//
// The ring gives each distinct node of its states a slot (ids) and keeps two
// bitmasks per slot: bit b of known[a] is set once the pair of slots a and b
// is resolved, and bit b of adj[a] then says whether the two nodes are
// adjacent. A push learns the pairs the walk itself resolved — the pushed
// state's internal adjacency (walk.Space.StateAdj; for d = 2 a state is an
// edge) and, for d = 1, the edge just traversed — and drops the slots of the
// nodes that left the ring, with every bit that names them. A window of any
// size is a run of consecutive ring states, so its union nodes are a subset
// of the slots and its code is a read of the masks: only pairs no earlier
// window or push resolved, in a walk those with the newest node, are probed
// with client.HasEdge, once per walk position for every size together. The
// masks start empty on reset and on restore, where the ring's states are
// placed without their adjacency, so a resumed walker's first windows probe
// in full. The code depends on HasEdge answers only, so carrying them moves
// no estimate.
//
// Under CSS the same slots carry node degrees: for d <= 2 a chain's interior
// state degree follows from its nodes' degrees (d = 1: the node's own, which
// a push records; d = 2: deg(u) + deg(v) - 2), each read once while the node
// stays in the ring. For d >= 3 the window's nodes are sorted once, so every
// interior mask yields its state's nodes sorted and distinct.

// ringNodes is the slot capacity: maxL = k-d+1 states of d nodes hold at
// most (MaxK-d+1)·d <= 9 distinct nodes. A walk's ring holds at most k, but
// a restored ring is not checked for adjacency.
const ringNodes = 16

// ring is the mirrored ring of a walker's last maxL states with their G(d)
// degrees, so that every window is one slice of it, and the carried
// adjacency over their union nodes.
type ring struct {
	maxL, d int
	pushed  int // states pushed since reset/restore

	// State j sits at positions j % maxL and j % maxL + maxL, with its
	// degree, its nodes' slots (at, in the state's node order) and their
	// set (held).
	win  [2 * graphlet.MaxK]walk.State
	degs [2 * graphlet.MaxK]int
	at   [2 * graphlet.MaxK][walk.MaxD]uint8
	held [2 * graphlet.MaxK]uint16

	ids    [ringNodes]int32
	ndeg   [ringNodes]int32 // node degrees, where hasDeg
	used   uint16           // slots holding a ring node
	hasDeg uint16
	known  [ringNodes]uint16
	adj    [ringNodes]uint16

	// The classified window's slots in first-appearance order (sel), its
	// nodes' window indices sorted by node (order, d >= 3), and the CSS
	// factors of its interior states (inv).
	sel   [graphlet.MaxK]uint8
	order [graphlet.MaxK]uint8
	inv   [1 << graphlet.MaxK]float64
}

// reset empties the ring and its adjacency.
func (r *ring) reset() {
	r.pushed = 0
	r.used, r.hasDeg = 0, 0
	clear(r.known[:])
	clear(r.adj[:])
	clear(r.held[:])
}

// push appends the next walk state with its degree and learns the pairs the
// walk resolved: the state's internal adjacency and, for d = 1, the edge
// from the state the walk stepped from (from; a zero or equal State when it
// did not move).
func (r *ring) push(space walk.Space, s walk.State, deg int, from walk.State) {
	j := r.pushed
	r.place(j, s, deg)
	r.pushed++
	at := &r.at[j%r.maxL]
	switch r.d {
	case 1:
		r.ndeg[at[0]] = int32(deg)
		r.hasDeg |= 1 << at[0]
		if from.Len() == 1 && from != s {
			if sl, ok := r.slotOf(from.Node(0)); ok {
				r.set(sl, at[0], true)
			}
		}
	case 2:
		r.set(at[0], at[1], true)
	default:
		m := space.StateAdj(s)
		for a := 0; a < r.d; a++ {
			for b := a + 1; b < r.d; b++ {
				r.set(at[a], at[b], m[a]&(1<<uint(b)) != 0)
			}
		}
	}
}

// place stores state j and its degree at both of its ring positions and
// gives its nodes slots. A node that some state still in the ring holds keeps
// its slot and every pair resolved with it; the nodes that only state
// j-maxL, the one j displaces, held are dropped.
func (r *ring) place(j int, s walk.State, deg int) {
	var keep uint16
	for i := max(0, j-r.maxL+1); i < j; i++ {
		keep |= r.held[i%r.maxL]
	}
	var at [walk.MaxD]uint8
	var held uint16
	var fresh uint8 // node positions of s without a slot
	for p := range s.Len() {
		if sl, ok := r.slotOf(s.Node(p)); ok {
			at[p] = sl
			held |= 1 << sl
		} else {
			fresh |= 1 << p
		}
	}
	r.drop(r.used &^ (keep | held))
	for ; fresh != 0; fresh &= fresh - 1 {
		p := bits.TrailingZeros8(fresh)
		sl := uint8(bits.TrailingZeros16(^r.used))
		r.used |= 1 << sl
		r.ids[sl] = s.Node(p)
		at[p] = sl
		held |= 1 << sl
	}
	pos := j % r.maxL
	r.win[pos], r.win[pos+r.maxL] = s, s
	r.degs[pos], r.degs[pos+r.maxL] = deg, deg
	r.at[pos], r.at[pos+r.maxL] = at, at
	r.held[pos], r.held[pos+r.maxL] = held, held
}

// window returns states [j, j+l) and their degrees, oldest first, as views
// of the ring; they must still be retained (j >= pushed-maxL).
func (r *ring) window(j, l int) ([]walk.State, []int) {
	pos := j % r.maxL
	return r.win[pos : pos+l], r.degs[pos : pos+l]
}

// slotOf returns x's slot, if x is a ring node.
func (r *ring) slotOf(x int32) (uint8, bool) {
	for m := r.used; m != 0; m &= m - 1 {
		if sl := uint8(bits.TrailingZeros16(m)); r.ids[sl] == x {
			return sl, true
		}
	}
	return 0, false
}

// drop frees the slots in gone and clears every bit that names them.
func (r *ring) drop(gone uint16) {
	if gone == 0 {
		return
	}
	r.used &^= gone
	r.hasDeg &^= gone
	for m := gone; m != 0; m &= m - 1 {
		sl := bits.TrailingZeros16(m)
		r.known[sl], r.adj[sl] = 0, 0
	}
	for m := r.used; m != 0; m &= m - 1 {
		sl := bits.TrailingZeros16(m)
		r.known[sl] &^= gone
		r.adj[sl] &^= gone
	}
}

// set records that the nodes of slots a and b are (edge) or are not adjacent.
func (r *ring) set(a, b uint8, edge bool) {
	r.known[a] |= 1 << b
	r.known[b] |= 1 << a
	if edge {
		r.adj[a] |= 1 << b
		r.adj[b] |= 1 << a
	}
}

// windowCode resolves window [j, j+l)'s union nodes and their adjacency
// code. It reports false unless the window covers exactly k distinct nodes
// (an invalid sample, Figure 3); collection stops at the (k+1)-th. On true,
// sel[:k] holds the nodes' slots in first-appearance order, the order the
// code is over. Pairs the masks do not hold are probed and kept.
func (r *ring) windowCode(client access.Client, k, j, l int) (uint16, bool) {
	pos := j % r.maxL
	var seen uint16
	n := 0
	for t := pos; t < pos+l; t++ {
		for _, sl := range r.at[t][:r.d] {
			if seen&(1<<sl) != 0 {
				continue
			}
			if n == k {
				return 0, false
			}
			seen |= 1 << sl
			r.sel[n] = sl
			n++
		}
	}
	if n != k {
		return 0, false
	}
	var rows [graphlet.MaxK]uint8
	for a := 0; a < k; a++ {
		sa := r.sel[a]
		for b := a + 1; b < k; b++ {
			sb := r.sel[b]
			if r.known[sa]&(1<<sb) == 0 {
				r.set(sa, sb, client.HasEdge(r.ids[sa], r.ids[sb]))
			}
			if r.adj[sa]&(1<<sb) != 0 {
				rows[a] |= 1 << b
			}
		}
	}
	return graphlet.CodeOfRows(k, &rows), true
}

// nodes returns the classified window's k nodes in first-appearance order.
func (r *ring) nodes(k int) []int32 {
	out := make([]int32, k)
	for i, sl := range r.sel[:k] {
		out[i] = r.ids[sl]
	}
	return out
}

// windowSample is the estimator on size s's window of states [j, j+s.l): if
// the states cover exactly k distinct nodes, it classifies the induced
// subgraph and returns its type with the re-weighted contribution
// 1/(α·π̃e), or 1/p̃ under CSS; otherwise the sample is invalid (Figure 3)
// and the type is -1.
func (r *ring) windowSample(client access.Client, space walk.Space, s *sizeParams, nb bool, j int) (int, float64, error) {
	code, ok := r.windowCode(client, s.k, j, s.l)
	if !ok {
		return -1, 0, nil
	}
	typ := graphlet.ClassifyCode(s.k, code)
	if typ < 0 {
		return -1, 0, fmt.Errorf("core: window %v classified as disconnected", r.nodes(s.k))
	}
	if s.chains != nil {
		if r.d >= 3 {
			r.sortWindow(s.k)
		}
		p := samplingProbabilityWith(s.chains, nb, code, &r.inv, func(m uint8) int {
			return r.interiorDegree(client, space, s.k, m)
		})
		if p <= 0 {
			return -1, 0, fmt.Errorf("core: zero sampling probability for type g%d_%d", s.k, typ+1)
		}
		return typ, 1 / p, nil
	}
	if s.alpha[typ] == 0 {
		return -1, 0, fmt.Errorf("core: walk produced type g%d_%d with alpha = 0 (d=%d)", s.k, typ+1, r.d)
	}
	_, degs := r.window(j, s.l)
	return typ, 1 / (float64(s.alpha[typ]) * pieTilde(nb, degs)), nil
}

// sortWindow fills order[:k] with the classified window's indices sorted by
// node.
func (r *ring) sortWindow(k int) {
	for i := range k {
		r.order[i] = uint8(i)
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && r.ids[r.sel[r.order[j]]] < r.ids[r.sel[r.order[j-1]]]; j-- {
			r.order[j], r.order[j-1] = r.order[j-1], r.order[j]
		}
	}
}

// interiorDegree returns the G(d) degree of the classified window's chain
// state whose nodes (window indices) mask selects.
func (r *ring) interiorDegree(client access.Client, space walk.Space, k int, mask uint8) int {
	switch r.d {
	case 1:
		return r.nodeDegree(client, r.sel[bits.TrailingZeros8(mask)])
	case 2:
		a := bits.TrailingZeros8(mask)
		b := bits.TrailingZeros8(mask &^ (1 << a))
		return r.nodeDegree(client, r.sel[a]) + r.nodeDegree(client, r.sel[b]) - 2
	}
	var buf [walk.MaxD]int32
	n := 0
	for _, i := range r.order[:k] {
		if mask&(1<<i) != 0 {
			buf[n] = r.ids[r.sel[i]]
			n++
		}
	}
	return space.StateDegree(walk.SortedState(buf[:n]))
}

// nodeDegree returns the degree of slot sl's node, read once while it stays
// in the ring.
func (r *ring) nodeDegree(client access.Client, sl uint8) int {
	if r.hasDeg&(1<<sl) == 0 {
		r.ndeg[sl] = int32(client.Degree(r.ids[sl]))
		r.hasDeg |= 1 << sl
	}
	return int(r.ndeg[sl])
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
