package exact

import (
	"runtime"
	"sync"

	"repro/internal/graph"
)

// ThreeNodeCounts returns the induced 3-node graphlet counts
// [wedges, triangles] using degree sums and per-edge common-neighbor
// intersection — a single pass over edges, parallelized.
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

// Triangles returns the number of triangles in g.
func Triangles(g *graph.Graph) int64 {
	var total int64
	var mu sync.Mutex
	parallelNodes(g.NumNodes(), func(lo, hi int32) {
		var local int64
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(u) {
				if v > u {
					local += int64(g.CommonNeighbors(u, v))
				}
			}
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total / 3
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
// (4-path, 3-star, 4-cycle, tailed-triangle, chordal-cycle, 4-clique) via
// non-induced pattern counting and the standard linear transform. It is much
// faster than enumeration on large sparse graphs and is cross-checked
// against CountESU in the tests.
func FourNodeCounts(g *graph.Graph) []int64 {
	n := g.NumNodes()

	// Per-node degrees, per-edge triangle counts.
	var (
		mu        sync.Mutex
		triEdge   = make(map[int64]int64) // edge key -> common neighbors
		nTriTotal int64
	)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	parallelNodes(n, func(lo, hi int32) {
		local := make(map[int64]int64)
		var localTri int64
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(u) {
				if v > u {
					c := int64(g.CommonNeighbors(u, v))
					if c > 0 {
						local[key(u, v)] = c
					}
					localTri += c
				}
			}
		}
		mu.Lock()
		for k, c := range local {
			triEdge[k] = c
		}
		nTriTotal += localTri
		mu.Unlock()
	})
	T := nTriTotal / 3 // triangles

	// Non-induced pattern counts.
	var nPath, nStar, nTailed, nDiamond, nCycle, nK4 int64

	// Stars: Σ C(d,3); contribution of degrees to paths below.
	for v := 0; v < n; v++ {
		d := int64(g.Degree(int32(v)))
		nStar += d * (d - 1) * (d - 2) / 6
	}
	// Paths: Σ_(u,v)∈E (du-1)(dv-1) - 3T.
	g.Edges(func(u, v int32) bool {
		nPath += int64(g.Degree(u)-1) * int64(g.Degree(v)-1)
		return true
	})
	nPath -= 3 * T

	// Tailed triangles: Σ_triangles (da+db+dc-6) = Σ_e tri(e)·(du+dv-4)/... —
	// computed per edge: each triangle {u,v,w} is seen by its three edges;
	// summing tri(e)·(du+dv-4) over edges counts (du+dv-4)+(du+dw-4)+(dv+dw-4)
	// = 2(du+dv+dw)-12 per triangle, i.e. twice the tail count.
	var tailedTwice int64
	g.Edges(func(u, v int32) bool {
		if c, ok := triEdge[key(u, v)]; ok {
			tailedTwice += c * int64(g.Degree(u)+g.Degree(v)-4)
		}
		return true
	})
	nTailed = tailedTwice / 2

	// Diamonds: Σ_e C(tri(e), 2).
	for _, c := range triEdge {
		nDiamond += c * (c - 1) / 2
	}

	// 4-cycles: ½ Σ_{u<v} C(codeg(u,v), 2) over all node pairs. Computed by
	// wedge aggregation: for each center w and pair of its neighbors (u,v),
	// increment codeg(u,v); equivalently Σ_pairs C(codeg,2) = Σ_pairs pairs
	// of distinct centers = # of 4-node "bi-wedges". We count via hashed
	// codegree accumulation per node to stay near O(Σ d²).
	nCycle = fourCycles(g)

	// K4: for each edge, count edges among the common neighborhood; each K4
	// counted once per its 6 edges.
	var k4Six int64
	var mu2 sync.Mutex
	parallelNodes(n, func(lo, hi int32) {
		var local int64
		var buf []int32
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(u) {
				if v <= u {
					continue
				}
				buf = g.CommonNeighborsInto(buf[:0], u, v)
				for i := 0; i < len(buf); i++ {
					for j := i + 1; j < len(buf); j++ {
						if g.HasEdge(buf[i], buf[j]) {
							local++
						}
					}
				}
			}
		}
		mu2.Lock()
		k4Six += local
		mu2.Unlock()
	})
	nK4 = k4Six / 6

	// Invert the non-induced -> induced linear system (bottom-up).
	k4 := nK4
	dm := nDiamond - 6*k4
	tt := nTailed - 4*dm - 12*k4
	c4 := nCycle - dm - 3*k4
	st := nStar - tt - 2*dm - 4*k4
	p4 := nPath - 2*tt - 4*c4 - 6*dm - 12*k4
	return []int64{p4, st, c4, tt, dm, k4}
}

// fourCycles counts non-induced 4-cycles as
// ¼ Σ_u Σ_{x≠u} C(paths2(u,x), 2), where paths2(u,x) is the number of
// length-2 paths from u to x: every cycle u-v-x-w is counted once at each of
// its four corners. Each worker owns a node range and a dense length-2
// counter with a touched list, so the computation is exact and O(Σ_v d_v²).
func fourCycles(g *graph.Graph) int64 {
	n := g.NumNodes()
	var total int64
	var mu sync.Mutex
	parallelNodes(n, func(lo, hi int32) {
		l2 := make([]int32, n)
		var touched []int32
		var local int64
		for u := lo; u < hi; u++ {
			touched = touched[:0]
			for _, v := range g.Neighbors(u) {
				for _, x := range g.Neighbors(v) {
					if x == u {
						continue
					}
					if l2[x] == 0 {
						touched = append(touched, x)
					}
					l2[x]++
				}
			}
			for _, x := range touched {
				c := int64(l2[x])
				local += c * (c - 1) / 2
				l2[x] = 0
			}
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total / 4
}

// parallelNodes runs fn over [0,n) split into contiguous chunks on all CPUs.
func parallelNodes(n int, fn func(lo, hi int32)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, int32(n))
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			fn(lo, hi)
		}(int32(lo), int32(hi))
	}
	wg.Wait()
}
