package core

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestMultiConfigValidate(t *testing.T) {
	bad := []MultiConfig{
		{},
		{Sizes: []int{2}, D: 1},
		{Sizes: []int{6}, D: 1},
		{Sizes: []int{3, 4}, D: 4},
		{Sizes: []int{3}, D: 0},
		{Sizes: []int{3}, D: 1, Walkers: -1},
		{Sizes: []int{3, 4}, D: 1, Walkers: 1<<16 + 1}, // more walkers than a state can carry
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	for _, c := range []MultiConfig{{Sizes: []int{3, 4, 5}, D: 2}, {Sizes: []int{3, 4}, D: 1, Walkers: 1 << 16}} {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
}

// TestMultiEstimatorConvergence: one walk on G(2), three sizes at once, each
// converging to its exact concentration.
func TestMultiEstimatorConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence test")
	}
	g := gen.HolmeKim(35, 3, 0.7, 13)
	client := access.NewGraphClient(g)
	me, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := me.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 4, 5} {
		want := exact.Concentrations(exact.CountESU(g, k))
		got := res.Results[k].Concentration()
		for i := range want {
			if want[i] < 0.005 {
				continue
			}
			if math.Abs(got[i]-want[i])/want[i] > 0.15 {
				t.Errorf("k=%d type %d: got %.4f, want %.4f", k, i+1, got[i], want[i])
			}
		}
	}
}

// TestRecoverStars: SRW1 for k=4 with star recovery converges to the full
// 4-node concentration including the otherwise invisible 3-star.
func TestRecoverStars(t *testing.T) {
	g := gen.HolmeKim(40, 3, 0.6, 42)
	client := access.NewGraphClient(g)
	res := runSize(t, client, MultiConfig{Sizes: []int{4}, D: 1, RecoverStars: true, Seed: 5}, 400000)
	want := exact.Concentrations(exact.CountESU(g, 4))
	got := res.Concentration()
	for i := range want {
		if want[i] < 0.01 {
			continue
		}
		if math.Abs(got[i]-want[i])/want[i] > 0.12 {
			t.Errorf("type %d: got %.4f, want %.4f", i+1, got[i], want[i])
		}
	}
	// The star is a dominant type on this graph; recovery must be non-zero.
	if got[1] < 0.1 {
		t.Errorf("recovered star concentration %.4f suspiciously low", got[1])
	}
}

func TestRecoverStarsValidation(t *testing.T) {
	bad := []MultiConfig{
		{Sizes: []int{3}, D: 1, RecoverStars: true},
		{Sizes: []int{4}, D: 2, RecoverStars: true},
		{Sizes: []int{3, 4}, D: 1, RecoverStars: true},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestMultiRunErrors(t *testing.T) {
	g := gen.Cycle(10)
	client := access.NewGraphClient(g)
	me, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.Run(0); err == nil {
		t.Error("Run(0) should fail")
	}
}
