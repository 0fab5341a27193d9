// Package gen provides deterministic synthetic graph generators. They stand
// in for the paper's web-crawled datasets (see README.md): Barabási–Albert
// and Holme–Kim produce the heavy-tailed degree distributions and tunable
// clustering that drive the paper's accuracy results; Erdős–Rényi and
// Watts–Strogatz cover the low- and high-clustering extremes; the
// configuration model gives direct control over the degree sequence.
//
// All generators are deterministic given the seed and return simple graphs.
package gen

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// ErdosRenyiGNM generates a uniform random graph with n nodes and (up to) m
// distinct edges, sampled without replacement.
func ErdosRenyiGNM(n int, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	for len(seen) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// ErdosRenyiGNP generates G(n, p) using geometric edge skipping, O(n + m).
func ErdosRenyiGNP(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(int32(u), int32(v))
			}
		}
		return b.Build()
	}
	lp := math.Log1p(-p)
	// Iterate over potential edges in row-major order, skipping geometrically.
	v, w := 1, -1
	for v < n {
		lr := math.Log1p(-rng.Float64())
		w += 1 + int(lr/lp)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(int32(v), int32(w))
		}
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: start from a small
// clique of m0 = m+1 nodes, then each new node attaches m edges to existing
// nodes chosen proportionally to degree (without duplicate targets).
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// repeated holds every edge endpoint twice; sampling a uniform element is
	// degree-proportional sampling.
	repeated := make([]int32, 0, 2*m*n)
	m0 := m + 1
	if m0 > n {
		m0 = n
	}
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			b.AddEdge(int32(u), int32(v))
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	targets := make([]int32, 0, m)
	for v := m0; v < n; v++ {
		targets = targets[:0]
		for len(targets) < m {
			t := repeated[rng.Intn(len(repeated))]
			dup := false
			for _, x := range targets {
				if x == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(int32(v), t)
			repeated = append(repeated, int32(v), t)
		}
	}
	return b.Build()
}

// HolmeKim generates a power-law graph with tunable clustering: like
// Barabási–Albert, but after each preferential attachment step a triad is
// closed with probability pt (attach to a random neighbor of the previous
// target). High pt yields Facebook-like triangle density.
func HolmeKim(n, m int, pt float64, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	repeated := make([]int32, 0, 2*m*n)
	adj := make([][]int32, n) // insertion-ordered adjacency for determinism
	// The seed clique adds each pair once, and after it u is the node being
	// added, whose row holds only the at most m edges added for it so far. So
	// a scan of adj[u] finds every duplicate, as BarabasiAlbert's scan of its
	// targets does.
	addEdge := func(u, v int32) bool {
		if u == v || slices.Contains(adj[u], v) {
			return false
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		b.AddEdge(u, v)
		repeated = append(repeated, u, v)
		return true
	}
	m0 := m + 1
	if m0 > n {
		m0 = n
	}
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			addEdge(int32(u), int32(v))
		}
	}
	for v := m0; v < n; v++ {
		var last int32 = -1
		added := 0
		for added < m {
			var t int32
			if last >= 0 && rng.Float64() < pt && len(adj[last]) > 0 {
				// Triad formation: pick a random neighbor of the last target.
				t = adj[last][rng.Intn(len(adj[last]))]
			} else {
				t = repeated[rng.Intn(len(repeated))]
			}
			if addEdge(int32(v), t) {
				last = t
				added++
			} else if last < 0 || rng.Float64() < 0.5 {
				// Avoid livelock on tiny graphs: fall back to uniform node.
				t = int32(rng.Intn(v))
				if addEdge(int32(v), t) {
					last = t
					added++
				}
			}
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice where every node
// connects to its k nearest neighbors (k even), each edge rewired with
// probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	has := make(map[int64]struct{}, n*k/2)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	add := func(u, v int32) bool {
		if u == v {
			return false
		}
		if _, ok := has[key(u, v)]; ok {
			return false
		}
		has[key(u, v)] = struct{}{}
		return true
	}
	type e struct{ u, v int32 }
	var edges []e
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if add(int32(u), int32(v)) {
				edges = append(edges, e{int32(u), int32(v)})
			}
		}
	}
	for i := range edges {
		if rng.Float64() < beta {
			u := edges[i].u
			for try := 0; try < 32; try++ {
				w := int32(rng.Intn(n))
				if add(u, w) {
					delete(has, key(edges[i].u, edges[i].v))
					edges[i].v = w
					break
				}
			}
		}
	}
	for _, ed := range edges {
		b.AddEdge(ed.u, ed.v)
	}
	return b.Build()
}

// PowerLawConfiguration generates a graph from the configuration model with a
// power-law degree sequence of exponent gamma and minimum degree dmin
// (truncated at dmax); multi-edges and self-loops created by the stub matching
// are discarded, as is standard.
func PowerLawConfiguration(n int, gamma float64, dmin, dmax int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if dmax >= n {
		dmax = n - 1
	}
	// Sample degrees via inverse transform on the discrete power law.
	degs := make([]int, n)
	var stubs int
	for i := range degs {
		d := samplePowerLaw(rng, gamma, dmin, dmax)
		degs[i] = d
		stubs += d
	}
	if stubs%2 == 1 {
		degs[0]++
	}
	var half []int32
	for v, d := range degs {
		for j := 0; j < d; j++ {
			half = append(half, int32(v))
		}
	}
	rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(half); i += 2 {
		b.AddEdge(half[i], half[i+1]) // builder drops loops/duplicates
	}
	return b.Build()
}

func samplePowerLaw(rng *rand.Rand, gamma float64, dmin, dmax int) int {
	// Discrete inverse-CDF sampling via continuous approximation.
	u := rng.Float64()
	a := 1 - gamma
	lo, hi := float64(dmin), float64(dmax)+1
	x := math.Pow(math.Pow(lo, a)+float64(u*(math.Pow(hi, a)-math.Pow(lo, a))), 1/a)
	d := int(x)
	if d < dmin {
		d = dmin
	}
	if d > dmax {
		d = dmax
	}
	return d
}

// PlantCliques returns a copy of g with `count` cliques of the given size
// planted on uniformly chosen node subsets. Planting models the dense
// community structure of real social networks, which the plain
// preferential-attachment generators lack; it gives the synthetic stand-ins
// realistic (small but non-zero) 4- and 5-clique concentrations.
func PlantCliques(g *graph.Graph, count, size int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	b := graph.NewBuilder(n)
	g.Edges(func(u, v int32) bool {
		b.AddEdge(u, v)
		return true
	})
	members := make([]int32, 0, size)
	for c := 0; c < count; c++ {
		members = members[:0]
		for len(members) < size {
			v := int32(rng.Intn(n))
			dup := false
			for _, x := range members {
				if x == v {
					dup = true
					break
				}
			}
			if !dup {
				members = append(members, v)
			}
		}
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(members[i], members[j])
			}
		}
	}
	return b.Build()
}

// RandomRegular generates an approximately d-regular graph via stub matching
// (loops/duplicates discarded, so some nodes may have degree d-1 or d-2).
func RandomRegular(n, d int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if n*d%2 == 1 {
		d++
	}
	half := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			half = append(half, int32(v))
		}
	}
	rng.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(half); i += 2 {
		b.AddEdge(half[i], half[i+1])
	}
	return b.Build()
}
