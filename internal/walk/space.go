package walk

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
)

// Space exposes the operations a random walk and the estimator need from the
// subgraph relationship graph G(d): initial states, uniform neighbor
// sampling, and state degrees (used in the stationary-weight π̃e).
type Space interface {
	// RandomState returns a valid starting state (a connected d-node
	// subgraph). Start-state bias vanishes by the SLLN; only validity
	// matters.
	RandomState(rng *rand.Rand) State
	// StateDegree returns the degree of s in G(d). For d >= 3 this is a
	// counting scan over the merge kernel — no neighbor states are built.
	StateDegree(s State) int
	// RandomNeighbor returns a uniformly random G(d)-neighbor of s. If s has
	// no neighbor (an isolated component smaller than d+1 nodes), s itself is
	// returned.
	RandomNeighbor(s State, rng *rand.Rand) State
	// RandomNeighborAvoiding returns a uniformly random neighbor of s other
	// than prev (non-backtracking step). If prev is s's only neighbor it is
	// returned, matching the NB-SRW transition rule for degree-1 states.
	RandomNeighborAvoiding(s, prev State, rng *rand.Rand) State
	// StateAdj returns the internal adjacency of s's nodes (bit j of entry i
	// set iff Node(i) ~ Node(j)). For d >= 3 the kernel computed the masks
	// anyway for incremental connectivity; for d <= 2 they follow from the
	// state shape. Classification layers use this to avoid re-probing
	// HasEdge for pairs the walk already resolved.
	StateAdj(s State) AdjMask
}

// NewSpace builds the G(d) state space over the client for d in 1..MaxD.
func NewSpace(c access.Client, d int) Space {
	switch {
	case d == 1:
		return &space1{c: c}
	case d == 2:
		return &space2{c: c}
	case d >= 3 && d <= MaxD:
		return newSpaceD(c, d)
	}
	panic(fmt.Sprintf("walk: unsupported d=%d", d))
}

// space1 is G(1) = G: states are single nodes.
type space1 struct {
	c access.Client
}

func (s *space1) RandomState(rng *rand.Rand) State {
	for {
		v := s.c.RandomNode(rng)
		if s.c.Degree(v) > 0 {
			return StateOf(v)
		}
	}
}

func (s *space1) StateDegree(st State) int { return s.c.Degree(st.Node(0)) }

func (s *space1) StateAdj(State) AdjMask { return AdjMask{} }

func (s *space1) RandomNeighbor(st State, rng *rand.Rand) State {
	v := st.Node(0)
	d := s.c.Degree(v)
	if d == 0 {
		return st
	}
	return StateOf(s.c.Neighbors(v)[rng.Intn(d)])
}

func (s *space1) RandomNeighborAvoiding(st, prev State, rng *rand.Rand) State {
	v := st.Node(0)
	d := s.c.Degree(v)
	switch d {
	case 0:
		return st
	case 1:
		return StateOf(s.c.Neighbors(v)[0])
	}
	p := prev.Node(0)
	for {
		w := s.c.Neighbors(v)[rng.Intn(d)]
		if w != p {
			return StateOf(w)
		}
	}
}

// space2 is G(2): states are edges; neighbor selection follows the paper's
// §5 two-stage procedure, O(1) expected time.
type space2 struct {
	c access.Client
}

func (s *space2) RandomState(rng *rand.Rand) State {
	for {
		v := s.c.RandomNode(rng)
		d := s.c.Degree(v)
		if d == 0 {
			continue
		}
		return StateOf(v, s.c.Neighbors(v)[rng.Intn(d)])
	}
}

// StateDegree of edge (u,v) in G(2) is du + dv - 2 (paper §4.1 example).
func (s *space2) StateDegree(st State) int {
	return s.c.Degree(st.Node(0)) + s.c.Degree(st.Node(1)) - 2
}

// StateAdj: a G(2) state is an edge, so its two nodes are always adjacent.
func (s *space2) StateAdj(State) AdjMask { return AdjMask{1 << 1, 1 << 0} }

func (s *space2) RandomNeighbor(st State, rng *rand.Rand) State {
	u, v := st.Node(0), st.Node(1)
	du, dv := s.c.Degree(u), s.c.Degree(v)
	if du+dv-2 <= 0 {
		return st // isolated edge component; hold in place
	}
	for {
		// Pick an endpoint proportionally to its degree, then one of its
		// neighbors uniformly; reject the partner endpoint. Each of the
		// du+dv-2 neighboring edges is uniform.
		base, other := u, v
		if rng.Intn(du+dv) >= du {
			base, other = v, u
		}
		w := s.c.Neighbors(base)[rng.Intn(s.c.Degree(base))]
		if w != other {
			return edgeState(base, w)
		}
	}
}

func (s *space2) RandomNeighborAvoiding(st, prev State, rng *rand.Rand) State {
	if s.StateDegree(st) <= 1 {
		return prev
	}
	for {
		next := s.RandomNeighbor(st, rng)
		if next != prev {
			return next
		}
	}
}

// spaceD is G(d) for d >= 3, served by the merge-based kernel (kernel.go):
// candidates come from a (d-1)-way sorted merge of adjacency rows,
// connectivity of rem ∪ {y} is decided from precomputed component masks plus
// the merge's membership bitmask, and transitions never materialize neighbor
// lists — a selection inside one dropped-node group (d = 3: over the shorter
// row only, from the nearer end, ranked into a hub's row) yields the
// uniformly drawn neighbor, and its record is derived from the current
// state's. Every record, derived or counted from scratch, is kept in one
// fixed ring of the last ringCap records (ring), which serves every degree
// and adjacency lookup. Each walker owns its space, and sibling walkers'
// spaces are allocated back to back; the ring is written every step, so a
// cache line of padding at each end keeps one walker's writes off the line
// its neighbor reads.
type spaceD struct {
	_      [cacheLine]byte
	c      access.Client
	cc     access.CommonCounter // non-nil iff c's access is free (see access.CommonCounter)
	d      int
	ring   [ringCap]ringRecord
	newest int // ring index of the newest record
	_      [cacheLine]byte
}

// cacheLine is the coherence granule spaceD pads against.
const cacheLine = 64

func newSpaceD(c access.Client, d int) *spaceD {
	cc, _ := c.(access.CommonCounter)
	return &spaceD{c: c, cc: cc, d: d}
}

func (s *spaceD) RandomState(rng *rand.Rand) State {
	for {
		v := s.c.RandomNode(rng)
		if s.c.Degree(v) == 0 {
			continue
		}
		nodes := []int32{v}
		ok := true
		for len(nodes) < s.d {
			// Add a random neighbor of a random already-chosen node.
			base := nodes[rng.Intn(len(nodes))]
			db := s.c.Degree(base)
			w := s.c.Neighbors(base)[rng.Intn(db)]
			dup := false
			for _, x := range nodes {
				if x == w {
					dup = true
					break
				}
			}
			if dup {
				// Retry a bounded number of times via outer restart to avoid
				// livelock in tiny components.
				if rng.Intn(4) == 0 {
					ok = false
					break
				}
				continue
			}
			nodes = append(nodes, w)
		}
		if ok {
			return StateOf(nodes...)
		}
	}
}

func (s *spaceD) StateDegree(st State) int { return int(s.infoOf(st).deg) }

func (s *spaceD) StateAdj(st State) AdjMask { return s.infoOf(st).adj }

func (s *spaceD) RandomNeighbor(st State, rng *rand.Rand) State {
	fi := s.infoOf(st)
	if fi.deg == 0 {
		return st
	}
	return s.keep(s.nthNeighbor(st, fi, int32(rng.Intn(int(fi.deg)))))
}

func (s *spaceD) RandomNeighborAvoiding(st, prev State, rng *rand.Rand) State {
	fi := s.infoOf(st)
	switch fi.deg {
	case 0:
		return st
	case 1:
		return s.keep(s.nthNeighbor(st, fi, 0))
	}
	for {
		// A redrawn prev costs only its pick; the record is derived once the
		// draw is accepted.
		next, xi, mask := s.pick(st, fi, int32(rng.Intn(int(fi.deg))))
		if next != prev {
			return s.keep(next, s.derive(st, fi, xi, next, mask))
		}
	}
}
