package graph

import (
	"fmt"
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

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return int(b.n) }

// Build produces the immutable Graph, deduplicating parallel edges.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	// Deduplicate in place.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	b.edges = uniq

	n := int(b.n)
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	off := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	adj := make([]int32, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for _, e := range b.edges {
		adj[cursor[e.u]] = e.v
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	g := &Graph{off: off, adj: adj, m: int64(len(b.edges))}
	// Edges were added in (u, v) sorted order per endpoint bucket only for u;
	// the v-side insertions can be out of order, so sort each list.
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		s := adj[lo:hi]
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
		if d := int(hi - lo); d > g.maxDeg {
			g.maxDeg = d
		}
	}
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
	// adjacency lists (HasEdge answers from them).
	if g.hubIdx != nil {
		if len(g.hubIdx) != g.NumNodes() {
			return fmt.Errorf("hub index length %d != %d nodes", len(g.hubIdx), g.NumNodes())
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			r := g.hubIdx[v]
			if r < 0 {
				continue
			}
			row := g.hubRows[int(r)*g.hubStride : (int(r)+1)*g.hubStride]
			bits := 0
			for _, w := range row {
				for ; w != 0; w &= w - 1 {
					bits++
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
