// Package mixing estimates random-walk mixing quantities on in-memory
// graphs: the spectral gap of the simple random walk's transition matrix and
// the ε-mixing time bound derived from it. Theorem 3 of the paper states the
// needed sample size is linear in the mixing time τ(1/8); this package makes
// that bound computable for concrete graphs (Definition 2, and the standard
// relaxation-time bound τ(ε) ≤ t_rel · ln(1/(ε·π_min))).
package mixing

import (
	"math"

	"repro/internal/graph"
)

// Result holds the spectral estimates for the simple random walk on a graph.
type Result struct {
	// SpectralGap is 1 - λ₂, where λ₂ is the second-largest eigenvalue (in
	// absolute value) of the lazy-symmetrized transition operator — the
	// quantity controlling convergence speed.
	SpectralGap float64
	// RelaxationTime is 1/SpectralGap.
	RelaxationTime float64
	// PiMin is the minimum stationary probability d_min/2|E|.
	PiMin float64
}

// MixingTime bounds τ(eps) via τ(ε) ≤ t_rel · ln(1/(ε·π_min)).
func (r Result) MixingTime(eps float64) float64 {
	if r.SpectralGap <= 0 || r.PiMin <= 0 || eps <= 0 {
		return math.Inf(1)
	}
	return r.RelaxationTime * math.Log(1/(eps*r.PiMin))
}

// Estimate computes the spectral gap of the lazy random walk
// P' = (I+P)/2 on g by power iteration on the stationarity-orthogonal
// complement. Laziness removes periodicity issues (bipartite graphs), and
// the symmetrized operator D^{1/2} P' D^{-1/2} makes the iteration stable.
// maxIter bounds the work; tol is the relative eigenvalue tolerance.
func Estimate(g *graph.Graph, maxIter int, tol float64) Result {
	n := g.NumNodes()
	res := Result{}
	if n == 0 || g.NumEdges() == 0 {
		return res
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	if tol <= 0 {
		tol = 1e-7
	}
	twoM := 2 * float64(g.NumEdges())

	// sqrtPi[v] = sqrt(d_v / 2|E|): the top eigenvector of the symmetrized
	// operator S = D^{-1/2} A D^{-1/2} (lazy: (I+S)/2), with eigenvalue 1.
	sqrtPi := make([]float64, n)
	minPi := math.Inf(1)
	for v := 0; v < n; v++ {
		d := float64(g.Degree(int32(v)))
		pi := d / twoM
		sqrtPi[v] = math.Sqrt(pi)
		if pi > 0 && pi < minPi {
			minPi = pi
		}
	}
	res.PiMin = minPi

	// Power iteration on x ⟂ sqrtPi.
	x := make([]float64, n)
	y := make([]float64, n)
	for v := range x {
		// Deterministic pseudo-random start, orthogonalized below.
		x[v] = math.Sin(float64(v)*12.9898 + 78.233)
	}
	orthogonalize(x, sqrtPi)
	normalize(x)

	lambda := 0.0
	for it := 1; it <= maxIter; it++ {
		// y = (I + S)/2 · x with S = D^{-1/2} A D^{-1/2}.
		for v := 0; v < n; v++ {
			dv := float64(g.Degree(int32(v)))
			if dv == 0 {
				y[v] = x[v] / 2
				continue
			}
			var acc float64
			for _, u := range g.Neighbors(int32(v)) {
				du := float64(g.Degree(u))
				acc += x[u] / math.Sqrt(dv*du)
			}
			y[v] = (x[v] + acc) / 2
		}
		orthogonalize(y, sqrtPi)
		newLambda := norm(y)
		if newLambda == 0 {
			lambda = 0
			break
		}
		for v := range y {
			y[v] /= newLambda
		}
		x, y = y, x
		if it > 4 && math.Abs(newLambda-lambda) <= tol*newLambda {
			lambda = newLambda
			break
		}
		lambda = newLambda
	}
	// Undo the laziness: eigenvalue μ of lazy operator = (1+λ_orig)/2. The
	// mixing bound uses the lazy chain's gap directly, which is what we
	// report (conservative for the non-lazy walk).
	res.SpectralGap = 1 - lambda
	if res.SpectralGap > 0 {
		res.RelaxationTime = 1 / res.SpectralGap
	} else {
		res.RelaxationTime = math.Inf(1)
	}
	return res
}

func orthogonalize(x, unit []float64) {
	var dot float64
	for i := range x {
		dot += x[i] * unit[i]
	}
	for i := range x {
		x[i] -= dot * unit[i]
	}
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}
