package graph

// LargestComponent extracts the largest connected component of g as a new
// graph with densely renumbered nodes, mirroring the paper's preprocessing
// ("we only retain the largest connected component"). It returns the new
// graph and the mapping from new node IDs to g's node IDs; original IDs g
// carries (OriginalID) are composed through that mapping onto the new graph.
//
// A connected graph is returned as-is with the identity mapping: copying it
// would produce a byte-identical graph (renumbering preserves node order),
// so skipping the copy keeps results unchanged while preserving zero-copy
// storage for graphs opened with OpenMapped.
func LargestComponent(g *Graph) (*Graph, []int32) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var (
		bestID   int32 = -1
		bestSize       = 0
		queue    []int32
		next     int32
	)
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := next
		next++
		size := 0
		queue = append(queue[:0], s)
		comp[s] = id
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
			}
		}
		if size > bestSize {
			bestSize = size
			bestID = id
		}
	}
	// Connected (or empty) graph: hand it back unchanged with the identity
	// mapping — the single labeling pass doubles as the connectivity check.
	if next <= 1 {
		toOld := make([]int32, n)
		for v := range toOld {
			toOld[v] = int32(v)
		}
		return g, toOld
	}
	// Renumber nodes of the best component.
	newID := make([]int32, n)
	toOld := make([]int32, 0, bestSize)
	for v := 0; v < n; v++ {
		if comp[v] == bestID {
			newID[v] = int32(len(toOld))
			toOld = append(toOld, int32(v))
		}
	}
	// Every neighbor of a component node is in the component, and the
	// renumbering keeps the old node order, so each kept row maps onto a
	// sorted, duplicate-free row of the same length: the CSR arrays are
	// written in one pass, with no Builder.
	var arcs int64
	for _, old := range toOld {
		arcs += int64(g.Degree(old))
	}
	lcc := &Graph{off: make([]int64, 1, bestSize+1), adj: make([]int32, 0, arcs), m: arcs / 2}
	for _, old := range toOld {
		row := g.Neighbors(old)
		for _, u := range row {
			lcc.adj = append(lcc.adj, newID[u])
		}
		lcc.off = append(lcc.off, int64(len(lcc.adj)))
		lcc.maxDeg = max(lcc.maxDeg, len(row))
	}
	lcc.buildHubIndex()
	if g.origIDs != nil {
		lcc.origIDs = make([]int64, len(toOld))
		for v, old := range toOld {
			lcc.origIDs[v] = g.origIDs[old]
		}
	}
	return lcc, toOld
}

// IsConnected reports whether g is connected (an empty graph counts as
// connected; a single node does too).
func IsConnected(g *Graph) bool {
	n := g.NumNodes()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := []int32{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count == n
}

// NumComponents returns the number of connected components.
func NumComponents(g *Graph) int {
	n := g.NumNodes()
	seen := make([]bool, n)
	var queue []int32
	comps := 0
	for s := int32(0); s < int32(n); s++ {
		if seen[s] {
			continue
		}
		comps++
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return comps
}
