package exact

import (
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ThreeNodeCounts returns the induced 3-node graphlet counts
// [wedges, triangles]: the non-induced wedges Σ C(d,2) less the three each
// triangle holds, with the triangles from Triangles' kernel.
func ThreeNodeCounts(g *graph.Graph) []int64 {
	tri := Triangles(g)
	var wedgesNonInduced int64
	for v := 0; v < g.NumNodes(); v++ {
		d := int64(g.Degree(int32(v)))
		wedgesNonInduced += d * (d - 1) / 2
	}
	// Every triangle contains 3 non-induced wedges.
	return []int64{wedgesNonInduced - 3*tri, tri}
}

// Triangles returns the number of triangles in g. It orients every edge
// toward the endpoint of higher (degree, id) rank and merges out(u) ∩ out(v)
// for each arc u → v, so a triangle is seen once, at its two lowest-ranked
// corners. Out-rows of hubs hold only the few nodes of still higher degree,
// so the merges cost O(m·α) overall, α the graph's arboricity, a log factor
// more where two rows' lengths are skewed and the merge gallops (the
// Chiba–Nishizeki bound, SIAM J. Comput. 1985). All CPUs share the work,
// taking nodes in small chunks from one cursor: preferential attachment
// puts the hubs at the lowest ids, and a split into contiguous ranges would
// give them all to one CPU.
func Triangles(g *graph.Graph) int64 {
	return orient(g).census(nil).tri
}

// GlobalClusteringCoefficient returns 3·C₂³/(C₁³ + 3·C₂³) = 3c₂³/(2c₂³+1),
// the quantity §2.1 derives from the triangle concentration.
func GlobalClusteringCoefficient(g *graph.Graph) float64 {
	c := ThreeNodeCounts(g)
	den := float64(c[0]) + float64(3*float64(c[1]))
	if den == 0 {
		return 0
	}
	return 3 * float64(c[1]) / den
}

// FourNodeCounts returns the induced 4-node graphlet counts in paper order
// (4-path, 3-star, 4-cycle, tailed-triangle, chordal-cycle, 4-clique). It
// counts non-induced patterns and inverts the standard linear transform; it
// is cross-checked against CountESU in the tests.
//
// One pass of Triangles' kernel yields the triangles, each edge's triangle
// count (one shared array indexed by forward-arc position), the 4-cliques —
// adjacent pairs inside each arc's intersection, so each once — and the
// 4-cycles, each counted once at its top-ranked corner u from the wedges
// u–v–x with v and x ranked below u. Every wedge so walked has its centre v
// ranked below u, so d(v) ≤ d(u) and the walk costs Σ over edges of the
// smaller degree, O(m·α), like the merges. Stars, paths, tailed triangles
// and diamonds then follow from per-node and per-edge sums.
func FourNodeCounts(g *graph.Graph) []int64 {
	f := orient(g)
	triArc := make([]atomic.Int32, len(f.adj))
	t := f.census(triArc)

	// Non-induced pattern counts: stars Σ C(d,3), paths Σ_(u,v)∈E
	// (du-1)(dv-1) less the 3 each triangle closes, diamonds Σ_e C(tri(e),2).
	// Tailed triangles: summing tri(e)·(du+dv-4) over edges counts each
	// triangle {u,v,w}'s (du+dv-4)+(du+dw-4)+(dv+dw-4) = 2(du+dv+dw-6)
	// tails, so twice the tail count.
	var nStar, nPath, tailedTwice, nDiamond int64
	for u := range int32(g.NumNodes()) {
		du := int64(g.Degree(u))
		nStar += du * (du - 1) * (du - 2) / 6
		for k := f.off[u]; k < f.off[u+1]; k++ {
			dv := int64(g.Degree(f.adj[k]))
			c := int64(triArc[k].Load())
			nPath += (du - 1) * (dv - 1)
			tailedTwice += c * (du + dv - 4)
			nDiamond += c * (c - 1) / 2
		}
	}
	nPath -= 3 * t.tri
	nTailed := tailedTwice / 2

	// Invert the non-induced -> induced linear system (bottom-up).
	k4 := t.k4
	dm := nDiamond - 6*k4
	tt := nTailed - 4*dm - 12*k4
	c4 := t.cycles - dm - 3*k4
	st := nStar - tt - 2*dm - 4*k4
	p4 := nPath - 2*tt - 4*c4 - 6*dm - 12*k4
	return []int64{p4, st, c4, tt, dm, k4}
}

// forward is g with every edge oriented from its lower- to its
// higher-ranked endpoint, nodes ranked by (degree, id): out(u) =
// adj[off[u]:off[u+1]] holds u's higher-ranked neighbours in ascending id
// order.
type forward struct {
	g    *graph.Graph
	rank []int32
	off  []int64
	adj  []int32
}

// orient builds g's forward adjacency in O(n + maxDeg + m).
func orient(g *graph.Graph) *forward {
	n := g.NumNodes()
	f := &forward{g: g, rank: degreeRanks(g), off: make([]int64, n+1), adj: make([]int32, 0, g.NumEdges())}
	for u := range int32(n) {
		ru := f.rank[u]
		for _, v := range g.Neighbors(u) {
			if f.rank[v] > ru {
				f.adj = append(f.adj, v)
			}
		}
		f.off[u+1] = int64(len(f.adj))
	}
	return f
}

func (f *forward) out(u int32) []int32 { return f.adj[f.off[u]:f.off[u+1]] }

// tally is what census adds up over all workers.
type tally struct{ tri, k4, cycles int64 }

// census runs the triangle kernel over every forward arc. With triArc nil it
// counts triangles only; otherwise it also adds each triangle to its three
// arcs' entries of triArc, one m-length array all workers share through
// atomic adds, and counts 4-cliques and 4-cycles; each worker then holds an
// n-length wedge counter, and none an m-length array of its own.
func (f *forward) census(triArc []atomic.Int32) tally {
	n := f.g.NumNodes()
	var total tally
	var mu sync.Mutex
	parallelChunks(n, runtime.GOMAXPROCS(0), func(chunks iter.Seq2[int32, int32]) {
		var (
			t       tally
			hits    []hit
			common  []int32 // out(u) ∩ out(v), ascending id
			cliques []hit
			wedges  []int32 // wedges[x]: wedges u–v–x at the current top corner u
			touched []int32
		)
		if triArc != nil {
			wedges = make([]int32, n)
		}
		for lo, hi := range chunks {
			for u := lo; u < hi; u++ {
				ou := f.out(u)
				for i, v := range ou {
					hits = intersect(hits[:0], ou, f.out(v))
					t.tri += int64(len(hits))
					if triArc == nil || len(hits) == 0 {
						continue
					}
					triArc[f.off[u]+int64(i)].Add(int32(len(hits)))
					common = common[:0]
					for _, h := range hits {
						triArc[f.off[u]+int64(h.i)].Add(1)
						triArc[f.off[v]+int64(h.j)].Add(1)
						common = append(common, ou[h.i])
					}
					// A 4-clique u, v, w, x (ranked so) is the one pair w → x
					// inside arc u → v's intersection.
					for _, w := range common {
						cliques = intersect(cliques[:0], f.out(w), common)
						t.k4 += int64(len(cliques))
					}
				}
				if triArc != nil {
					t.cycles += f.cyclesAt(u, wedges, &touched)
				}
			}
		}
		mu.Lock()
		total.tri += t.tri
		total.k4 += t.k4
		total.cycles += t.cycles
		mu.Unlock()
	})
	return total
}

// cyclesAt counts the 4-cycles whose top-ranked corner is u: the pairs of
// wedges u–v–x and u–w–x with v, w and x all ranked below u. wedges is an
// all-zero n-length counter, which it leaves all zero.
func (f *forward) cyclesAt(u int32, wedges []int32, touched *[]int32) int64 {
	ru := f.rank[u]
	*touched = (*touched)[:0]
	for _, v := range f.g.Neighbors(u) {
		if f.rank[v] > ru {
			continue
		}
		for _, x := range f.g.Neighbors(v) {
			if f.rank[x] >= ru {
				continue
			}
			if wedges[x] == 0 {
				*touched = append(*touched, x)
			}
			wedges[x]++
		}
	}
	var c int64
	for _, x := range *touched {
		w := int64(wedges[x])
		c += w * (w - 1) / 2
		wedges[x] = 0
	}
	return c
}

// hit is one id two sorted rows share, by its index in each.
type hit struct{ i, j int32 }

// gallopSkew is the length ratio beyond which intersect gallops through the
// longer row instead of merging, as graph.CommonNeighbors does.
const gallopSkew = 16

// intersect appends to dst the index pairs of the ids the ascending rows a
// and b share, in ascending id order.
func intersect(dst []hit, a, b []int32) []hit {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	if len(a) >= gallopSkew*len(b) {
		start := len(dst)
		dst = intersect(dst, b, a)
		for k := start; k < len(dst); k++ {
			dst[k].i, dst[k].j = dst[k].j, dst[k].i
		}
		return dst
	}
	if len(b) >= gallopSkew*len(a) {
		j := 0
		for i, x := range a {
			j += graph.GallopSearch(b[j:], x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, hit{int32(i), int32(j)})
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, hit{int32(i), int32(j)})
			i++
			j++
		}
	}
	return dst
}

// nodeChunk is how many nodes a worker takes from the shared cursor at once.
const nodeChunk = 64

// parallelChunks runs work on workers goroutines. Each ranges over chunks,
// which hands it [lo, hi) ranges of [0, n), nodeChunk nodes at a time, from
// one shared cursor until none is left, so a worker that drew cheap nodes
// takes more of them. Scratch a worker allocates before its range loop
// serves all its chunks.
func parallelChunks(n, workers int, work func(chunks iter.Seq2[int32, int32])) {
	var cursor atomic.Int64
	chunks := func(yield func(lo, hi int32) bool) {
		for {
			lo := cursor.Add(nodeChunk) - nodeChunk
			if lo >= int64(n) || !yield(int32(lo), int32(min(lo+nodeChunk, int64(n)))) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(chunks)
		}()
	}
	wg.Wait()
}
