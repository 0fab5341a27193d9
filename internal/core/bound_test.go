package core

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

func TestSampleSizeBound(t *testing.T) {
	in := BoundInput{Eps: 0.1, Delta: 0.05, W: 1000, Lambda: 10, Tau: 50}
	n := SampleSizeBound(in)
	want := (1000.0 / 10.0) * 50 / 0.01 * math.Log(1/0.05)
	if math.Abs(n-want) > 1e-6*want {
		t.Errorf("bound = %f, want %f", n, want)
	}
	// Scaling: halving eps quadruples the bound.
	in2 := in
	in2.Eps = 0.05
	if r := SampleSizeBound(in2) / n; math.Abs(r-4) > 1e-9 {
		t.Errorf("eps scaling ratio %f, want 4", r)
	}
	// Larger Lambda (more common graphlet) shrinks the bound.
	in3 := in
	in3.Lambda = 100
	if SampleSizeBound(in3) >= n {
		t.Error("larger Lambda should shrink the bound")
	}
}

func TestWeightedConcentration(t *testing.T) {
	g := gen.HolmeKim(60, 3, 0.7, 3)
	counts := exact.CountESU(g, 4)
	f := make([]float64, len(counts))
	for i, c := range counts {
		f[i] = float64(c)
	}
	plain := exact.Concentrations(counts)
	for _, d := range []int{2, 3} {
		w := WeightedConcentration(4, d, f)
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Fatalf("d=%d: negative weighted concentration %v", d, w)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("d=%d: weighted concentration sums to %f", d, sum)
		}
		// The paper's point: rare dense graphlets (clique) gain weight
		// relative to their plain concentration.
		if counts[5] > 0 && w[5] <= plain[5] {
			t.Errorf("d=%d: clique weighted %.6f not lifted above plain %.6f", d, w[5], plain[5])
		}
	}
	// d=1 zeroes the star (alpha=0).
	w1 := WeightedConcentration(4, 1, f)
	if w1[1] != 0 {
		t.Errorf("d=1 star weighted concentration = %f, want 0", w1[1])
	}
}

func TestWeightedConcentrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	WeightedConcentration(4, 2, []float64{1, 2})
}

func TestTwoRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for d=3")
		}
	}()
	TwoR(gen.Cycle(5), 3)
}
