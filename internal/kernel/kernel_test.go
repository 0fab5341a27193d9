package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCosineBasics(t *testing.T) {
	if c := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-12 {
		t.Errorf("identical vectors: %f", c)
	}
	if c := Cosine([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Errorf("orthogonal vectors: %f", c)
	}
	if c := Cosine([]float64{0, 0}, []float64{1, 1}); c != 0 {
		t.Errorf("zero vector: %f", c)
	}
	// Scale invariance.
	a := []float64{0.2, 0.5, 0.3}
	b := []float64{0.4, 1.0, 0.6}
	if c := Cosine(a, b); math.Abs(c-1) > 1e-12 {
		t.Errorf("proportional vectors: %f", c)
	}
}

func TestCosinePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Cosine([]float64{1}, []float64{1, 2})
}

// Property: cosine is symmetric and within [-1, 1].
func TestCosineProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		x, y := a[:], b[:]
		for i := range x {
			x[i] = clamp(x[i])
			y[i] = clamp(y[i])
		}
		c1, c2 := Cosine(x, y), Cosine(y, x)
		return c1 == c2 && c1 >= -1.0000001 && c1 <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	// Bound quick-generated magnitudes to avoid float overflow in dot
	// products; concentration vectors are in [0,1] anyway.
	if v != v || v > 1e6 || v < -1e6 {
		return 1
	}
	return v
}
