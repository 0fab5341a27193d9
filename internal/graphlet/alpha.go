package graphlet

import "math/bits"

// This file implements Algorithm 2 of the paper: the state-corresponding
// coefficient α^k_i counts the ordered chains of l = k-d+1 connected d-node
// induced subgraphs of graphlet g^k_i such that consecutive chain elements
// are adjacent in the subgraph relationship graph G(d) (i.e. share exactly
// d-1 nodes; for d = 1 adjacency means an edge of the graphlet) and the chain
// covers all k nodes. Equivalently, α is the number of ways the random walk
// on G(d) can traverse the graphlet in l consecutive steps.

// subsetInfo describes one connected d-node induced subgraph of a graphlet,
// as a bitmask over the graphlet's node indices.
type subsetInfo struct {
	mask uint8
}

// connectedSubsets enumerates the bitmasks of all connected d-node induced
// subgraphs of the k-node graph given by the edge predicate.
func connectedSubsets(k, d int, hasEdge func(i, j int) bool) []subsetInfo {
	var adjMask [5]uint8
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j && hasEdge(i, j) {
				adjMask[i] |= 1 << uint(j)
			}
		}
	}
	var out []subsetInfo
	full := uint8(1<<uint(k)) - 1
	for mask := uint8(1); mask <= full; mask++ {
		if bits.OnesCount8(mask) != d {
			continue
		}
		if maskConnected(mask, adjMask[:k]) {
			out = append(out, subsetInfo{mask: mask})
		}
		if mask == full { // avoid uint8 wrap when k == 8 (not reachable, but safe)
			break
		}
	}
	return out
}

func maskConnected(mask uint8, adjMask []uint8) bool {
	if mask == 0 {
		return false
	}
	start := uint8(1) << uint(bits.TrailingZeros8(mask))
	reach := start
	for {
		next := reach
		for v := 0; v < len(adjMask); v++ {
			if reach&(1<<uint(v)) != 0 {
				next |= adjMask[v] & mask
			}
		}
		if next == reach {
			break
		}
		reach = next
	}
	return reach == mask
}

// subsetsAdjacent reports whether two distinct d-node states are adjacent in
// G(d): for d = 1 they must be joined by an edge; for d >= 2 they must share
// exactly d-1 nodes.
func subsetsAdjacent(d int, a, b subsetInfo, hasEdge func(i, j int) bool) bool {
	if a.mask == b.mask {
		return false
	}
	if d == 1 {
		return hasEdge(bits.TrailingZeros8(a.mask), bits.TrailingZeros8(b.mask))
	}
	return bits.OnesCount8(a.mask&b.mask) == d-1
}

// EnumerateChains calls fn once for every valid chain of l = k-d+1 connected
// d-node subgraphs of the k-node graph defined by hasEdge (over node indices
// 0..k-1) such that consecutive elements are G(d)-adjacent and the chain
// covers all k nodes. The chain is passed as a slice of node-index bitmasks;
// it is reused between calls and must not be retained. Enumeration stops
// early if fn returns false. For d = k the single chain is the full node set.
//
// This is the generic enumerator: it rebuilds the subset list per call and is
// meant for table construction (computeAlpha, the per-(k,d) ChainTable of
// chains.go), reports and tests. The estimator's step path reads the
// ChainTable, which stores the chains in exactly the order emitted here so
// that CSS weights stay bit-identical to a direct pass over this function.
func EnumerateChains(k, d int, hasEdge func(i, j int) bool, fn func(chain []uint8) bool) {
	if d < 1 || d > k {
		panic("graphlet: EnumerateChains: d out of range")
	}
	full := uint8(1<<uint(k)) - 1
	if d == k {
		fn([]uint8{full})
		return
	}
	subsets := connectedSubsets(k, d, hasEdge)
	l := k - d + 1
	chain := make([]uint8, 0, l)
	used := make([]bool, len(subsets))
	stop := false
	var rec func(last int, union uint8)
	rec = func(last int, union uint8) {
		if stop {
			return
		}
		if len(chain) == l {
			if union == full {
				if !fn(chain) {
					stop = true
				}
			}
			return
		}
		// Prune: after the first element (which contributes d nodes), each
		// remaining step can add at most one new node.
		if len(chain) > 0 {
			missing := bits.OnesCount8(full &^ union)
			if missing > l-len(chain) {
				return
			}
		}
		for i := range subsets {
			if used[i] {
				continue
			}
			if last >= 0 && !subsetsAdjacent(d, subsets[last], subsets[i], hasEdge) {
				continue
			}
			used[i] = true
			chain = append(chain, subsets[i].mask)
			rec(i, union|subsets[i].mask)
			chain = chain[:len(chain)-1]
			used[i] = false
			if stop {
				return
			}
		}
	}
	rec(-1, 0)
}

// computeAlpha counts the chains of the graphlet under SRW(d) (Algorithm 2).
func computeAlpha(g *Graphlet, d int) int64 {
	hasEdge := func(i, j int) bool { return g.Adj[i][j] }
	var n int64
	EnumerateChains(g.K, d, hasEdge, func([]uint8) bool {
		n++
		return true
	})
	return n
}
