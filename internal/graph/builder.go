package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self loops are dropped (the framework assumes simple graphs).
type Builder struct {
	n     int32
	edges []edge
}

type edge struct{ u, v int32 }

// NewBuilder creates a Builder for a graph with at least n nodes. Adding an
// edge with a larger endpoint grows the node set automatically.
func NewBuilder(n int) *Builder {
	return &Builder{n: int32(n)}
}

// AddEdge records the undirected edge (u, v). Self loops are ignored.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, edge{u, v})
}

// Build produces the immutable Graph: every neighbor row sorted ascending and
// free of duplicates, parallel edges counted once. It runs in O(n + m) plus
// the row sorts: a degree count, one scatter of both directions of every
// edge into the adjacency array, then a pass that sorts each row, drops its
// duplicates and moves it left over the gaps the dropped entries leave. The
// edge list is left as added, so the Builder stays reusable: a second Build
// returns the same graph.
func (b *Builder) Build() *Graph {
	n := int(b.n)
	// off[v+1] counts v's arcs; the prefix sum turns off[v] into the start
	// of v's row, and the scatter advances it to the row's end.
	off := make([]int64, n+1)
	for _, e := range b.edges {
		off[e.u+1]++
		off[e.v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	adj := make([]int32, off[n])
	for _, e := range b.edges {
		adj[off[e.u]] = e.v
		off[e.u]++
		adj[off[e.v]] = e.u
		off[e.v]++
	}
	g := &Graph{}
	var lo, w int64 // lo: the scattered row's start; w: the compacted end
	for v := 0; v < n; v++ {
		hi := off[v]
		off[v] = w
		row := adj[lo:hi]
		slices.Sort(row)
		row = slices.Compact(row)
		w += int64(copy(adj[w:], row))
		if d := len(row); d > g.maxDeg {
			g.maxDeg = d
		}
		lo = hi
	}
	off[n] = w
	if w < int64(len(adj)) {
		// Duplicates were dropped: copy the live prefix, so the graph does
		// not keep their memory (an edge list that names every edge in both
		// directions would double it).
		adj = append(make([]int32, 0, w), adj[:w]...)
	}
	g.off, g.adj, g.m = off, adj, w/2
	g.buildHubIndex()
	return g
}

// FromEdgeList builds a graph directly from a slice of [2]int32 edges.
func FromEdgeList(n int, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Validate checks structural invariants of the graph (sorted unique neighbor
// lists, symmetry, no self loops, consistent edge count). It is intended for
// tests and returns a descriptive error on the first violation.
func Validate(g *Graph) error {
	var arcs int64
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		ns := g.Neighbors(v)
		arcs += int64(len(ns))
		for i, u := range ns {
			if u == v {
				return fmt.Errorf("self loop at node %d", v)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("neighbor list of %d not strictly sorted at index %d", v, i)
			}
			// Probe u's list directly rather than through HasEdge: the hub
			// bitset fast path answers from v's own row, which would let an
			// asymmetric pair involving a hub slip through.
			back := g.Neighbors(u)
			j := sort.Search(len(back), func(j int) bool { return back[j] >= v })
			if j == len(back) || back[j] != v {
				return fmt.Errorf("asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	if arcs != 2*g.m {
		return fmt.Errorf("arc count %d != 2*|E| = %d", arcs, 2*g.m)
	}
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(int32(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != g.MaxDegree() {
		return fmt.Errorf("cached MaxDegree %d != scanned max degree %d", g.MaxDegree(), maxDeg)
	}
	// Hub bitset rows, when present, must agree bit-for-bit with the
	// adjacency lists (HasEdge answers from them), and each rank directory
	// entry must count its row's bits up to the middle of its pair of words.
	if g.hubIdx != nil {
		if len(g.hubIdx) != g.NumNodes() {
			return fmt.Errorf("hub index length %d != %d nodes", len(g.hubIdx), g.NumNodes())
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			r := g.hubIdx[v]
			if r < 0 {
				continue
			}
			h := g.hubRow(r)
			row := h.bits
			bits := 0
			for i, w := range row {
				for ; w != 0; w &= w - 1 {
					bits++
				}
				if i&1 == 0 && int(h.rank[i>>1]) != bits {
					return fmt.Errorf("hub row of %d: rank entry %d is %d, the row has %d bits in words [0, %d)", v, i>>1, h.rank[i>>1], bits, i+1)
				}
			}
			if bits != g.Degree(v) {
				return fmt.Errorf("hub row of %d has %d bits, degree is %d", v, bits, g.Degree(v))
			}
			for _, u := range g.Neighbors(v) {
				if row[u>>6]>>(uint(u)&63)&1 != 1 {
					return fmt.Errorf("hub row of %d missing neighbor %d", v, u)
				}
			}
		}
	}
	return nil
}
