// Package baseline implements the competing methods of the paper's §6.3:
// wedge sampling [32] and 3-path sampling [14] (full-access, independent
// samples) and the adapted Wedge-MHRW (Algorithm 4, restricted access).
// PSRW [36] and SRW-on-G(k) [36] need no separate code: they are the
// framework with d = k-1 and d = k respectively.
package baseline

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// WedgeSampler implements Seshadhri-Pinar-Kolda wedge sampling: nodes are
// sampled with probability proportional to the number of wedges they center,
// C(d_v, 2), then a uniform pair of neighbors forms the wedge. Preprocessing
// is O(|V|); each sample costs O(log |V|) for the cumulative-weight search —
// matching the complexity the paper quotes.
type WedgeSampler struct {
	g   *graph.Graph
	cum []float64 // cumulative wedge weights per node
	// totalWedges is Σ_v C(d_v, 2) — the count of non-induced wedges.
	totalWedges float64
}

// NewWedgeSampler preprocesses g.
func NewWedgeSampler(g *graph.Graph) *WedgeSampler {
	n := g.NumNodes()
	cum := make([]float64, n)
	total := 0.0
	for v := 0; v < n; v++ {
		d := float64(g.Degree(int32(v)))
		total += float64(d * (d - 1) / 2)
		cum[v] = total
	}
	return &WedgeSampler{g: g, cum: cum, totalWedges: total}
}

// WedgeResult aggregates a wedge-sampling run.
type WedgeResult struct {
	Samples int
	Closed  int // wedges whose endpoints are adjacent
	// TotalWedges echoes the sampler's denominator.
	TotalWedges float64
}

// TriangleCount estimates C³₂ = closedFraction · W / 3.
func (r WedgeResult) TriangleCount() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Closed) / float64(r.Samples) * r.TotalWedges / 3
}

// Sample draws n independent wedges.
func (s *WedgeSampler) Sample(n int, rng *rand.Rand) WedgeResult {
	res := WedgeResult{Samples: n, TotalWedges: s.totalWedges}
	for i := 0; i < n; i++ {
		v := s.sampleCenter(rng)
		d := s.g.Degree(v)
		for d < 2 {
			// Zero-weight node hit on a cumulative-sum boundary; resample.
			v = s.sampleCenter(rng)
			d = s.g.Degree(v)
		}
		a := rng.Intn(d)
		b := rng.Intn(d - 1)
		if b >= a {
			b++
		}
		u, w := s.g.Neighbors(v)[a], s.g.Neighbors(v)[b]
		if s.g.HasEdge(u, w) {
			res.Closed++
		}
	}
	return res
}

func (s *WedgeSampler) sampleCenter(rng *rand.Rand) int32 {
	x := rng.Float64() * s.totalWedges
	return int32(sort.SearchFloat64s(s.cum, x))
}
