package graph

// Largest-connected-component extraction, the paper's preprocessing ("we
// only retain the largest connected component"), and the one component
// labelling under it: a union-find forest fed each row in node order. A
// .gcsr open feeds it from the validation pass that already reads every row
// (buildV1Graph's checkAdjacency, buildV2Graph's block decode) when OpenLCC
// asks for labels, so OpenLCC makes one pass over the graph: a connected
// file is served as opened, with no row read after the open and none left
// in a v2 page cache, and a disconnected one costs one more read of the
// kept component's rows, in node order, to copy them. The labels cost one
// union-find step per arc and a transient forest of 4 bytes per node, which
// the extraction reuses as its renumbering. Every other caller labels a
// graph it already holds with components, which reads its rows once in node
// order.

// forest is a union-find over nodes [0, n) whose every root is the smallest
// node of its set, so parent[v] <= v throughout. nil stands for "no
// labelling asked for".
type forest []int32

func newForest(n int) forest {
	f := make(forest, n)
	for v := range f {
		f[v] = int32(v)
	}
	return f
}

// find returns x's root, halving the path on the way.
func (f forest) find(x int32) int32 {
	for f[x] != x {
		f[x] = f[f[x]]
		x = f[x]
	}
	return x
}

// addRow joins v with every node of row, each of which must be in range.
func (f forest) addRow(v int32, row []int32) {
	r := f.find(v)
	for _, u := range row {
		switch ru := f.find(u); {
		case ru < r:
			f[r], r = ru, ru
		case ru > r:
			f[ru] = r
		}
	}
}

// labels turns f, in place, into component labels numbered in order of
// each component's smallest node, and returns them with the component
// sizes. f is spent. In node order, a root opens the next label and any
// other node takes the label of its parent, a smaller node already
// labelled in the same component.
func (f forest) labels() (comp []int32, sizes []int) {
	for v, p := range f {
		if p == int32(v) {
			f[v] = int32(len(sizes))
			sizes = append(sizes, 1)
			continue
		}
		f[v] = f[p]
		sizes[f[v]]++
	}
	return f, sizes
}

// rowForest is g's union-find forest, fed g's rows in node order.
func rowForest(g *Graph) forest {
	f := newForest(g.NumNodes())
	for v := range int32(g.NumNodes()) {
		f.addRow(v, g.Neighbors(v))
	}
	return f
}

// components labels every node of g with its connected component, numbered
// in order of each component's smallest node, and returns the labels and
// the component sizes.
func components(g *Graph) (comp []int32, sizes []int) { return rowForest(g).labels() }

// LargestComponent extracts the largest connected component of g as a new
// graph with densely renumbered nodes. It returns the new graph and the
// mapping from new node IDs to g's node IDs; original IDs g carries
// (OriginalID) are composed through that mapping onto the new graph.
//
// A connected graph is returned as-is with the identity mapping: copying it
// would produce a byte-identical graph (renumbering preserves node order),
// so skipping the copy keeps results unchanged while preserving zero-copy
// storage for graphs opened with OpenMapped.
func LargestComponent(g *Graph) (*Graph, []int32) {
	comp, sizes := components(g)
	if len(sizes) <= 1 {
		toOld := make([]int32, g.NumNodes())
		for v := range toOld {
			toOld[v] = int32(v)
		}
		return g, toOld
	}
	return extractLargest(g, comp, sizes)
}

// extractLargest copies the first of g's largest components (components are
// numbered in order of their smallest node) out of g, given g's component
// labels and sizes, and returns it with the mapping from its node IDs to
// g's. comp is overwritten.
func extractLargest(g *Graph, comp []int32, sizes []int) (*Graph, []int32) {
	bestID := int32(0)
	for id, size := range sizes {
		if size > sizes[bestID] {
			bestID = int32(id)
		}
	}
	// Renumber the best component's nodes in place: comp[v] becomes v's new
	// ID. Nodes are renumbered in order and each test reads a label not yet
	// overwritten, and afterwards only component nodes' entries are read.
	toOld := make([]int32, 0, sizes[bestID])
	for v, c := range comp {
		if c == bestID {
			comp[v] = int32(len(toOld))
			toOld = append(toOld, int32(v))
		}
	}
	newID := comp
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
