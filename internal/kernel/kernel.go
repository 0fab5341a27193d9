// Package kernel implements the graphlet-kernel similarity of the paper's
// §6.4 (after Shervashidze et al. [33], restricted to one graphlet size):
// the cosine similarity of two graphs' graphlet-concentration vectors.
package kernel

import "math"

// Cosine returns c1·c2 / (‖c1‖·‖c2‖). Vectors must have equal length; zero
// vectors yield 0.
func Cosine(c1, c2 []float64) float64 {
	if len(c1) != len(c2) {
		panic("kernel: vector length mismatch")
	}
	var dot, n1, n2 float64
	for i := range c1 {
		dot += float64(c1[i] * c2[i])
		n1 += float64(c1[i] * c1[i])
		n2 += float64(c2[i] * c2[i])
	}
	if n1 == 0 || n2 == 0 {
		return 0
	}
	return dot / math.Sqrt(n1*n2)
}

// Gram returns the pairwise cosine-similarity matrix of the given
// concentration vectors — the graphlet kernel's Gram matrix used for graph
// classification. Cosine similarity is symmetric, so only the upper triangle
// is computed and mirrored; the diagonal is 1 for nonzero vectors (0 for zero
// vectors, matching Cosine).
func Gram(vectors [][]float64) [][]float64 {
	n := len(vectors)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if !isZero(vectors[i]) {
			out[i][i] = 1
		}
		for j := i + 1; j < n; j++ {
			s := Cosine(vectors[i], vectors[j])
			out[i][j] = s
			out[j][i] = s
		}
	}
	return out
}

func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
