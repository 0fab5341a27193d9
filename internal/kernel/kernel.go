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
