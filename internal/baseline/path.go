package baseline

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphlet"
)

// PathSampler implements Jha-Seshadhri-Pinar 3-path sampling for 4-node
// graphlet counts: an edge e = (u,v) is drawn with probability proportional
// to τ_e = (d_u-1)(d_v-1), then uniform neighbors u' of u (≠v) and v' of v
// (≠u) complete a uniformly random (possibly degenerate) 3-path. Each sample
// is classified by the induced subgraph of its (up to) four distinct nodes;
// counts follow from the per-type 3-path multiplicities. Preprocessing is
// O(|E|), sampling O(log |E|) per draw — the costs §6.3.2 compares against.
type PathSampler struct {
	g     *graph.Graph
	edges [][2]int32
	cum   []float64
	// totalPaths is W = Σ_e τ_e, the number of (centered) 3-path samples.
	totalPaths float64
}

// pathMult[i] is the number of non-induced 3-paths in 4-node graphlet type
// i+1: path 1, star 0, cycle 4, tailed-triangle 2, chordal-cycle 6,
// clique 12.
var pathMult = [6]float64{1, 0, 4, 2, 6, 12}

// NewPathSampler preprocesses g.
func NewPathSampler(g *graph.Graph) *PathSampler {
	s := &PathSampler{g: g}
	total := 0.0
	g.Edges(func(u, v int32) bool {
		t := float64(g.Degree(u)-1) * float64(g.Degree(v)-1)
		if t > 0 {
			s.edges = append(s.edges, [2]int32{u, v})
			total += float64(t) // rounded on its own: never fused into an FMA
			s.cum = append(s.cum, total)
		}
		return true
	})
	s.totalPaths = total
	return s
}

// PathResult aggregates a 3-path sampling run.
type PathResult struct {
	Samples    int
	TypeCounts [6]int64 // valid samples (4 distinct nodes) per 4-node type
	TotalPaths float64
	// NonInducedStars is Σ_v C(d_v, 3), computed exactly during estimation
	// (stars contain no 3-path, so they need the degree-based side count, as
	// in the original paper).
	NonInducedStars float64
}

// Counts returns the estimated induced 4-node graphlet counts in paper
// order. Types with a 3-path (all but the 3-star) are estimated from sample
// fractions; the 3-star count is recovered from the exact non-induced star
// count minus the estimated contributions of denser types.
func (r PathResult) Counts() []float64 {
	out := make([]float64, 6)
	if r.Samples == 0 {
		return out
	}
	for i := 0; i < 6; i++ {
		if pathMult[i] == 0 {
			continue
		}
		frac := float64(r.TypeCounts[i]) / float64(r.Samples)
		out[i] = frac * r.TotalPaths / pathMult[i]
	}
	// Induced stars = non-induced stars - tailed - 2*chordal - 4*clique.
	out[1] = r.NonInducedStars - out[3] - float64(2*out[4]) - float64(4*out[5])
	if out[1] < 0 {
		out[1] = 0
	}
	return out
}

// Sample draws n independent 3-paths.
func (s *PathSampler) Sample(n int, rng *rand.Rand) PathResult {
	res := PathResult{Samples: n, TotalPaths: s.totalPaths}
	for v := 0; v < s.g.NumNodes(); v++ {
		d := float64(s.g.Degree(int32(v)))
		res.NonInducedStars += d * (d - 1) * (d - 2) / 6
	}
	var nodes [4]int32
	for i := 0; i < n; i++ {
		e := s.sampleEdge(rng)
		u, v := e[0], e[1]
		up := s.randomNeighborExcept(u, v, rng)
		vp := s.randomNeighborExcept(v, u, rng)
		nodes[0], nodes[1], nodes[2], nodes[3] = u, v, up, vp
		if up == vp || up == v || vp == u {
			continue // degenerate: fewer than 4 distinct nodes
		}
		code := graphlet.CodeOf(4, func(a, b int) bool {
			return s.g.HasEdge(nodes[a], nodes[b])
		})
		if t := graphlet.ClassifyCode(4, code); t >= 0 {
			res.TypeCounts[t]++
		}
	}
	return res
}

func (s *PathSampler) sampleEdge(rng *rand.Rand) [2]int32 {
	x := rng.Float64() * s.totalPaths
	i := sort.SearchFloat64s(s.cum, x)
	if i >= len(s.edges) {
		i = len(s.edges) - 1
	}
	return s.edges[i]
}

func (s *PathSampler) randomNeighborExcept(v, not int32, rng *rand.Rand) int32 {
	d := s.g.Degree(v)
	// τ_e > 0 guarantees d >= 2, so a neighbor ≠ not exists.
	for {
		w := s.g.Neighbors(v)[rng.Intn(d)]
		if w != not {
			return w
		}
	}
}
