package walk

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/access"
)

// Space exposes the operations a random walk and the estimator need from the
// subgraph relationship graph G(d): initial states, uniform neighbor
// sampling, and state degrees (used in the stationary-weight π̃e).
type Space interface {
	// D returns the walk order d.
	D() int
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

func (s *space1) D() int { return 1 }

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
	return StateOf(s.c.Neighbor(v, rng.Intn(d)))
}

func (s *space1) RandomNeighborAvoiding(st, prev State, rng *rand.Rand) State {
	v := st.Node(0)
	d := s.c.Degree(v)
	switch d {
	case 0:
		return st
	case 1:
		return StateOf(s.c.Neighbor(v, 0))
	}
	p := prev.Node(0)
	for {
		w := s.c.Neighbor(v, rng.Intn(d))
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

func (s *space2) D() int { return 2 }

func (s *space2) RandomState(rng *rand.Rand) State {
	for {
		v := s.c.RandomNode(rng)
		d := s.c.Degree(v)
		if d == 0 {
			continue
		}
		return StateOf(v, s.c.Neighbor(v, rng.Intn(d)))
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
		w := s.c.Neighbor(base, rng.Intn(s.c.Degree(base)))
		if w != other {
			return StateOf(base, w)
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
// row only, from the nearer end) yields the uniformly drawn neighbor, and its
// record is derived from the current state's. Every record, derived or
// counted from scratch, is kept in one fixed ring of the last ringCap
// records (ring), which serves every degree and adjacency lookup. Each
// walker owns its space, and sibling walkers' spaces are allocated back to
// back; the ring is written every step, so a cache line of padding at each
// end keeps one walker's writes off the line its neighbor reads.
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

func (s *spaceD) D() int { return s.d }

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
			w := s.c.Neighbor(base, rng.Intn(db))
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

// neighbors materializes the full G(d) neighbor list of st in canonical
// order through the production group scans. Only tests and verification
// tooling call it; the walk paths go through infoOf/pick/derive.
func (s *spaceD) neighbors(st State) []State {
	fi := s.infoOf(st)
	out := make([]State, 0, fi.deg)
	var g groupScan
	for xi := 0; xi < st.Len(); xi++ {
		g.prepare(s.c, st, xi, fi.adj)
		out = g.appendGroup(out)
	}
	return out
}

// referenceNeighbors is the retained naive §5 materialization — gather every
// neighbor of the d-1 retained nodes, sort, dedup, then re-derive
// connectivity per candidate with HasEdge probes. It defines the canonical
// neighbor order the merge kernel must reproduce exactly (same elements,
// same positions: RNG draw sequences depend on it) and serves as the
// equivalence oracle in tests. Never called on walk paths.
func referenceNeighbors(c access.Client, st State) []State {
	var out []State
	d := st.Len()
	var rem [MaxD]int32
	var cand []int32
	for xi := 0; xi < d; xi++ {
		// rem = st minus node xi.
		n := 0
		for i := 0; i < d; i++ {
			if i != xi {
				rem[n] = st.Node(i)
				n++
			}
		}
		// Candidate incoming nodes: neighbors of rem, excluding st's nodes.
		cand = cand[:0]
		for i := 0; i < n; i++ {
			for _, y := range c.Neighbors(rem[i]) {
				if !st.Contains(y) {
					cand = append(cand, y)
				}
			}
		}
		slices.Sort(cand)
		var prev int32 = -1
		for _, y := range cand {
			if y == prev {
				continue
			}
			prev = y
			if referenceConnectedWith(c, rem[:n], y) {
				out = append(out, StateOf(append(rem[:n:n], y)...))
			}
		}
	}
	return out
}

// referenceConnectedWith reports whether rem ∪ {y} induces a connected
// subgraph, probing every pair — the per-candidate cost the merge kernel's
// incremental connectivity eliminates.
func referenceConnectedWith(c access.Client, rem []int32, y int32) bool {
	var nodes [MaxD]int32
	copy(nodes[:], rem)
	nodes[len(rem)] = y
	n := len(rem) + 1
	var adj [MaxD]uint8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.HasEdge(nodes[i], nodes[j]) {
				adj[i] |= 1 << uint(j)
				adj[j] |= 1 << uint(i)
			}
		}
	}
	reach := uint8(1)
	for {
		next := reach
		for v := 0; v < n; v++ {
			if reach&(1<<uint(v)) != 0 {
				next |= adj[v]
			}
		}
		if next == reach {
			break
		}
		reach = next
	}
	return reach == uint8(1<<uint(n))-1
}
