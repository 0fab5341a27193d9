// Package exact computes exact graphlet counts, serving as the ground truth
// for every NRMSE in the evaluation and as the "Exact" column of Table 6.
//
// The reference algorithm is ESU (Wernicke's FANMOD enumeration), which
// visits every connected induced k-node subgraph exactly once; it is
// parallelized over root nodes and allocation-free per subgraph. Independent
// fast paths — triangle/wedge counting and the formula-based 4-node counter —
// cross-check it and scale to the larger stand-in datasets.
package exact

import (
	"iter"
	"runtime"

	"repro/internal/graph"
	"repro/internal/graphlet"
)

// CountESU enumerates all connected induced k-node subgraphs of g with the
// ESU algorithm and returns the count of each graphlet type in paper order.
// It runs on all CPUs. Nodes are first relabeled by ascending degree so that
// hub-centered subgraphs root at their low-degree members: without this, a
// single root owns the ~C(deg_hub, k-1) subgraphs around each hub and the
// parallel speedup collapses.
func CountESU(g *graph.Graph, k int) []int64 {
	return countESUWorkers(byDegree(g), k, runtime.GOMAXPROCS(0))
}

// byDegree relabels nodes by their degreeRanks.
func byDegree(g *graph.Graph) *graph.Graph {
	rank := degreeRanks(g)
	b := graph.NewBuilder(g.NumNodes())
	g.Edges(func(u, v int32) bool {
		b.AddEdge(rank[u], rank[v])
		return true
	})
	return b.Build()
}

// degreeRanks returns each node's position in ascending (degree, id) order,
// by a counting sort: O(n + maxDeg), deterministic.
func degreeRanks(g *graph.Graph) []int32 {
	n := g.NumNodes()
	next := make([]int32, g.MaxDegree()+2) // next[d]: next rank of degree d
	for v := range int32(n) {
		next[g.Degree(v)+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	rank := make([]int32, n)
	for v := range int32(n) {
		d := g.Degree(v)
		rank[v] = next[d]
		next[d]++
	}
	return rank
}

func countESUWorkers(g *graph.Graph, k int, workers int) []int64 {
	n := g.NumNodes()
	types := graphlet.Count(k)
	results := make(chan []int64, workers)
	parallelChunks(n, workers, func(chunks iter.Seq2[int32, int32]) {
		e := newEnumerator(g, k, types)
		for lo, hi := range chunks {
			for v := lo; v < hi; v++ {
				e.enumerateRoot(v)
			}
		}
		results <- e.counts
	})
	close(results)
	total := make([]int64, types)
	for r := range results {
		for i, c := range r {
			total[i] += c
		}
	}
	return total
}

// enumerator holds per-worker ESU state. All buffers are preallocated; the
// hot path performs no heap allocation.
type enumerator struct {
	g      *graph.Graph
	k      int
	counts []int64

	sub     [5]int32 // current subgraph nodes, sub[0] = root
	adjBits [5]uint8 // adjBits[t] bit j: sub[t] adjacent to sub[j], j < t
	// The candidate set at each depth is a rope of segments: the surviving
	// prefixes of ancestor candidate lists plus this depth's exclusive
	// neighbors. Segments are never copied, only re-sliced, so hub nodes do
	// not pay quadratic candidate-copy costs.
	added   [6][]int32 // exclusive neighbors discovered at each depth
	segs    [6][]seg   // candidate rope per depth
	visited []bool     // root ∪ subgraph ∪ seen extension candidates

	// pairPos maps a node-index pair to its code bit, mirroring
	// graphlet.Pairs(k).
	pairPos [5][5]uint
}

func newEnumerator(g *graph.Graph, k, types int) *enumerator {
	e := &enumerator{
		g:       g,
		k:       k,
		counts:  make([]int64, types),
		visited: make([]bool, g.NumNodes()),
	}
	for bit, p := range graphlet.Pairs(k) {
		e.pairPos[p[0]][p[1]] = uint(bit)
		e.pairPos[p[1]][p[0]] = uint(bit)
	}
	return e
}

// seg is one contiguous run of candidate nodes.
type seg struct{ s []int32 }

// enumerateRoot runs ESU from root v: all enumerated subgraphs have v as
// their minimum node, guaranteeing each subgraph is visited exactly once.
func (e *enumerator) enumerateRoot(v int32) {
	add := e.added[0][:0]
	e.visited[v] = true
	for _, u := range e.g.Neighbors(v) {
		if u > v {
			add = append(add, u)
			e.visited[u] = true
		}
	}
	e.added[0] = add
	e.sub[0] = v
	e.adjBits[0] = 0
	segs := e.segs[0][:0]
	if len(add) > 0 {
		segs = append(segs, seg{add})
	}
	e.segs[0] = segs
	e.extend(1, segs)
	e.visited[v] = false
	for _, u := range add {
		e.visited[u] = false
	}
}

// extend grows the subgraph from depth nodes using the candidate rope.
// Each candidate w (taken from the back of the rope) branches with the
// candidates before it plus the exclusive neighbors of w (unvisited nodes
// > root). Prefixes are expressed by re-slicing segments — never copying.
func (e *enumerator) extend(depth int, rope []seg) {
	root := e.sub[0]
	last := depth == e.k-1
	for si := len(rope) - 1; si >= 0; si-- {
		cands := rope[si].s
		for i := len(cands) - 1; i >= 0; i-- {
			w := cands[i]
			// Incremental adjacency of w to the current subgraph.
			var bits uint8
			for t := 0; t < depth; t++ {
				if e.g.HasEdge(w, e.sub[t]) {
					bits |= 1 << uint(t)
				}
			}
			e.sub[depth] = w
			e.adjBits[depth] = bits
			if last {
				e.classify()
				continue
			}
			// Exclusive neighbors of w.
			add := e.added[depth][:0]
			for _, u := range e.g.Neighbors(w) {
				if u > root && !e.visited[u] {
					add = append(add, u)
					e.visited[u] = true
				}
			}
			e.added[depth] = add
			// Branch rope: segments before si, the prefix of cands, and add.
			branch := e.segs[depth][:0]
			branch = append(branch, rope[:si]...)
			if i > 0 {
				branch = append(branch, seg{cands[:i]})
			}
			if len(add) > 0 {
				branch = append(branch, seg{add})
			}
			e.segs[depth] = branch[:0] // retain capacity
			e.extend(depth+1, branch)
			for _, u := range add {
				e.visited[u] = false
			}
		}
	}
}

// classify assembles the subgraph code from the incremental adjacency bits.
func (e *enumerator) classify() {
	var code uint16
	for t := 1; t < e.k; t++ {
		bits := e.adjBits[t]
		for j := 0; j < t; j++ {
			if bits&(1<<uint(j)) != 0 {
				code |= 1 << e.pairPos[t][j]
			}
		}
	}
	e.counts[graphlet.ClassifyCode(e.k, code)]++
}

// Concentrations converts counts to the concentration vector c^k.
func Concentrations(counts []int64) []float64 {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	out := make([]float64, len(counts))
	if sum == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(sum)
	}
	return out
}
