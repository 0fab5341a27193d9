package walk

import (
	"slices"

	"repro/internal/access"
)

// referenceNeighbors is the retained naive §5 materialization — gather every
// neighbor of the d-1 retained nodes, sort, dedup, then re-derive
// connectivity per candidate with HasEdge probes. It defines the canonical
// neighbor order the merge kernel must reproduce exactly (same elements,
// same positions: RNG draw sequences depend on it) and serves as the
// equivalence oracle of the kernel tests.
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

// neighbors materializes the full G(d) neighbor list of st in canonical
// order through the production group scans, for comparison with
// referenceNeighbors; the walk paths go through infoOf/pick/derive.
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

// appendGroup scans the whole group appending every connected neighbor state
// to dst.
func (g *groupScan) appendGroup(dst []State) []State {
	for {
		y, _, ok := g.nextNeighbor()
		if !ok {
			return dst
		}
		dst = append(dst, stateInsert(g.rem[:g.n], y))
	}
}

// Nodes appends the state's nodes to dst.
func (s State) Nodes(dst []int32) []int32 { return append(dst, s.v[:s.n]...) }

// Shared returns the number of nodes shared with t (both sorted: linear
// merge).
func (s State) Shared(t State) int {
	i, j, c := 0, 0, 0
	for i < int(s.n) && j < int(t.n) {
		switch {
		case s.v[i] < t.v[j]:
			i++
		case s.v[i] > t.v[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
