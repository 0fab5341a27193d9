package core

import (
	"repro/internal/access"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// windowCode builds the k-node adjacency code of a window's union nodes for
// classification. Every pair of nodes co-resident in some window state was
// already resolved by the walk kernel (walk.Space.StateAdj hands back the
// internal adjacency masks it computed for incremental connectivity), so only
// the pairs no window state covers are probed with client.HasEdge (for d = 1
// the covered pairs are the consecutive ones, adjacent by construction). With
// l = k-d+1 consecutive d-node states, consecutive states overlap in d-1
// nodes, so uncovered pairs are the rare far-apart ones — classification
// stops re-running the binary-search storm the kernel was built to eliminate.
//
// nodes is the union in first-appearance order (what windowSample builds);
// states are the window's states, oldest first.
func windowCode(client access.Client, space walk.Space, k int, nodes []int32, states []walk.State) uint16 {
	// known/adj are k×k bitmasks over union-node indices (k <= MaxK = 8 fits
	// a uint8 row... MaxK is 5 here; 8 bits are plenty).
	var known, adj [graphlet.MaxK]uint8
	if space.D() == 1 {
		// Single-node states carry no adjacency masks, but the walk has just
		// traversed the edge between consecutive ones: with k distinct nodes,
		// nodes[i] is the i-th window state and nodes[i] ~ nodes[i+1].
		for i := 0; i+1 < k; i++ {
			known[i] |= 1 << uint(i+1)
			known[i+1] |= 1 << uint(i)
		}
		adj = known
	} else {
		for _, s := range states {
			mask := space.StateAdj(s)
			n := s.Len()
			// Map state-node positions to union indices.
			var idx [walk.MaxD]int
			for a := 0; a < n; a++ {
				x := s.Node(a)
				for u, y := range nodes {
					if y == x {
						idx[a] = u
						break
					}
				}
			}
			for a := 0; a < n; a++ {
				ua := idx[a]
				for b := a + 1; b < n; b++ {
					ub := idx[b]
					known[ua] |= 1 << uint(ub)
					known[ub] |= 1 << uint(ua)
					if mask[a]&(1<<uint(b)) != 0 {
						adj[ua] |= 1 << uint(ub)
						adj[ub] |= 1 << uint(ua)
					}
				}
			}
		}
	}
	return graphlet.CodeOf(k, func(i, j int) bool {
		if known[i]&(1<<uint(j)) != 0 {
			return adj[i]&(1<<uint(j)) != 0
		}
		return client.HasEdge(nodes[i], nodes[j])
	})
}
