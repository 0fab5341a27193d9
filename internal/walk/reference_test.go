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
