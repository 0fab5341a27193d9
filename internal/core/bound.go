package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/graphlet"
)

// TwoR returns 2|R(d)| — twice the number of edges of the subgraph
// relationship graph G(d) — for d = 1 and d = 2, the cases the paper gives
// closed forms for (§3.3): 2|R(1)| = 2|E| and
// 2|R(2)| = Σ_{(u,v)∈E} (d_u + d_v - 2) = Σ_v d_v² - 2|E|.
// These are the constants needed to turn the framework's weights into
// unbiased count estimates (Equation 4); d = 1 needs no graph scan and d = 2
// needs a single pass, as the paper notes.
func TwoR(g *graph.Graph, d int) float64 {
	switch d {
	case 1:
		return 2 * float64(g.NumEdges())
	case 2:
		var sum float64
		for v := 0; v < g.NumNodes(); v++ {
			dv := float64(g.Degree(int32(v)))
			sum += float64(dv * dv) // rounded on its own: never fused into an FMA
		}
		return sum - 2*float64(g.NumEdges())
	}
	panic("core: TwoR supports d = 1, 2 only")
}

// WeightedConcentration returns the paper's Figure 5 quantity
// α_i·C_i / Σ_j α_j·C_j for the exact counts of k-node graphlets under
// SRW(d): the probability that a stationary window sample of the walk shows
// type i. Rare graphlets with large α are over-represented relative to their
// plain concentration, which is exactly why small d improves accuracy.
func WeightedConcentration(k, d int, counts []float64) []float64 {
	cat := graphlet.Catalog(k)
	if len(counts) != len(cat) {
		panic("core: WeightedConcentration: counts length mismatch")
	}
	out := make([]float64, len(counts))
	var sum float64
	for i := range counts {
		out[i] = float64(float64(cat[i].Alpha[d]) * counts[i]) // never fused into an FMA
		sum += out[i]
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// BoundInput collects the quantities of Theorem 3's sample-size bound.
type BoundInput struct {
	Eps    float64 // relative error ε
	Delta  float64 // failure probability δ
	W      float64 // max over states of 1/πe (or 1/p under CSS)
	Lambda float64 // min{α_i·C_i, α_min·C^k}
	Tau    float64 // mixing time τ(1/8) of the walk
	PhiPi  float64 // ‖φ‖_πe of the initial distribution (1 if started warm)
	Xi     float64 // the theorem's constant ξ (default 1)
}

// SampleSizeBound evaluates Theorem 3: the number of consecutive-step
// samples sufficient for ĉ to be within (1±ε)·c with probability 1-δ,
//
//	n >= ξ · (W/Λ) · τ/ε² · log(‖φ‖_πe/δ).
//
// The constant ξ is universal but not computed by the paper; the returned
// value is therefore meaningful up to that constant and is used to compare
// methods (smaller W/Λ ⇒ fewer samples), mirroring the paper's discussion.
func SampleSizeBound(in BoundInput) float64 {
	xi := in.Xi
	if xi == 0 {
		xi = 1
	}
	phi := in.PhiPi
	if phi == 0 {
		phi = 1
	}
	return xi * (in.W / in.Lambda) * in.Tau / (in.Eps * in.Eps) * math.Log(phi/in.Delta)
}
