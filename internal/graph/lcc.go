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
	comp, sizes := components(g)
	// Connected (or empty) graph: hand it back unchanged with the identity
	// mapping — the single labeling pass doubles as the connectivity check.
	if len(sizes) <= 1 {
		toOld := make([]int32, n)
		for v := range toOld {
			toOld[v] = int32(v)
		}
		return g, toOld
	}
	// The first of the largest components (components are numbered in order
	// of their smallest node).
	bestID := int32(0)
	for id, size := range sizes {
		if size > sizes[bestID] {
			bestID = int32(id)
		}
	}
	// Renumber nodes of the best component.
	newID := make([]int32, n)
	toOld := make([]int32, 0, sizes[bestID])
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
	lcc := &Graph{off: make([]int64, 1, len(toOld)+1), adj: make([]int32, 0, arcs), m: arcs / 2}
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

// components labels every node of g with its connected component, numbered
// in order of each component's smallest node, and returns the labels and
// the component sizes. LargestComponent is built on it.
func components(g *Graph) (comp []int32, sizes []int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		size := 0
		stack = append(stack[:0], s)
		comp[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return comp, sizes
}
