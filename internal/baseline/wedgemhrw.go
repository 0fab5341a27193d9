package baseline

import (
	"math/rand"

	"repro/internal/access"
)

// WedgeMHRW implements the paper's Algorithm 4 (Appendix F): wedge sampling
// adapted to restricted access via a Metropolis-Hastings random walk whose
// stationary distribution over nodes is proportional to C(d_v, 2). At every
// step a uniform pair of the current node's neighbors is tested for
// adjacency. Each step explores three nodes' neighborhoods, so its API cost
// is ~3x a simple-random-walk step — the point of the §6.3.3 comparison.
type WedgeMHRW struct {
	c   access.Client
	rng *rand.Rand
	cur int32
}

// NewWedgeMHRW seeds the walker at a random node with degree >= 2.
func NewWedgeMHRW(c access.Client, rng *rand.Rand) *WedgeMHRW {
	w := &WedgeMHRW{c: c, rng: rng}
	for {
		v := c.RandomNode(rng)
		if c.Degree(v) >= 2 {
			w.cur = v
			break
		}
	}
	return w
}

// MHRWResult aggregates a run.
type MHRWResult struct {
	Open   int64 // Ĉ³₁ accumulator: sampled open wedges
	Closed int64 // Ĉ³₂ accumulator: sampled closed wedges
}

// Concentration returns [ĉ³₁, ĉ³₂] per Algorithm 4 line 17: every triangle
// holds three closed wedges, hence the factor 3 on the open accumulator.
func (r MHRWResult) Concentration() []float64 {
	den := float64(3*float64(r.Open)) + float64(r.Closed)
	if den == 0 {
		return []float64{0, 0}
	}
	return []float64{3 * float64(r.Open) / den, float64(r.Closed) / den}
}

// Run advances n Metropolis-Hastings steps, sampling one wedge per step.
func (w *WedgeMHRW) Run(n int) MHRWResult {
	var res MHRWResult
	for t := 0; t < n; t++ {
		v := w.cur
		dv := w.c.Degree(v)
		// Sample a uniform pair of neighbors of v.
		a := w.rng.Intn(dv)
		b := w.rng.Intn(dv - 1)
		if b >= a {
			b++
		}
		x, y := w.c.Neighbors(v)[a], w.c.Neighbors(v)[b]
		if w.c.HasEdge(x, y) {
			res.Closed++
		} else {
			res.Open++
		}
		// Metropolis-Hastings proposal: uniform neighbor; accept with
		// min{1, (d_w - 1)/(d_v - 1)} (stationary ∝ C(d, 2)).
		prop := w.c.Neighbors(v)[w.rng.Intn(dv)]
		dw := w.c.Degree(prop)
		if dw >= 2 {
			if p := float64(dw-1) / float64(dv-1); w.rng.Float64() <= p {
				w.cur = prop
			}
		}
	}
	return res
}
