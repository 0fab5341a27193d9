package mixing

import (
	"math"
	"testing"

	"repro/internal/gen"
)

func TestCompleteGraphGap(t *testing.T) {
	// K_n: non-lazy SRW eigenvalues are 1 and -1/(n-1); the lazy chain's
	// second eigenvalue is (1 - 1/(n-1))/2... for K5: orig λ2 = -1/4, all
	// non-top eigenvalues equal -1/4, lazy: (1-1/4)/2 = 0.375.
	r := Estimate(gen.Complete(5), 500, 1e-10)
	if math.Abs(r.SpectralGap-(1-0.375)) > 1e-6 {
		t.Errorf("K5 lazy gap = %f, want 1 - 0.375", r.SpectralGap)
	}
	if math.Abs(r.PiMin-0.2) > 1e-12 {
		t.Errorf("K5 piMin = %f, want 0.2", r.PiMin)
	}
}

func TestCycleGapFormula(t *testing.T) {
	// C_n: SRW eigenvalues cos(2πk/n); λ2 = cos(2π/n); lazy (1+cos)/2.
	n := 16
	r := Estimate(gen.Cycle(n), 5000, 1e-12)
	want := (1 + math.Cos(2*math.Pi/float64(n))) / 2
	if math.Abs(r.SpectralGap-(1-want)) > 1e-6 {
		t.Errorf("C%d lazy gap = %f, want 1 - %f", n, r.SpectralGap, want)
	}
}

func TestExpanderMixesFasterThanPath(t *testing.T) {
	expander := gen.RandomRegular(200, 6, 1)
	path := gen.Path(200)
	re := Estimate(expander, 2000, 1e-9)
	rp := Estimate(path, 2000, 1e-9)
	if re.MixingTime(1.0/8) >= rp.MixingTime(1.0/8) {
		t.Errorf("expander mixing %f >= path mixing %f", re.MixingTime(1.0/8), rp.MixingTime(1.0/8))
	}
}

func TestLollipopSlow(t *testing.T) {
	// The lollipop is a classic slow mixer; its relaxation time should beat
	// a comparable-size ER graph by a wide margin.
	lol := Estimate(gen.Lollipop(15, 30), 5000, 1e-9)
	er := Estimate(gen.ErdosRenyiGNM(45, 200, 3), 5000, 1e-9)
	if lol.RelaxationTime < 3*er.RelaxationTime {
		t.Errorf("lollipop t_rel %f not much larger than ER %f", lol.RelaxationTime, er.RelaxationTime)
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := Estimate(gen.Path(1), 100, 1e-9)
	if empty.RelaxationTime != 0 && !math.IsInf(empty.RelaxationTime, 1) {
		// A single node has no edges; Estimate returns the zero Result.
		t.Errorf("single-node result = %+v", empty)
	}
	var zero Result
	if !math.IsInf(zero.MixingTime(0.125), 1) {
		t.Error("zero result should give infinite mixing time")
	}
}

func TestMixingTimeMonotoneInEps(t *testing.T) {
	r := Estimate(gen.BarabasiAlbert(300, 3, 9), 2000, 1e-9)
	if !(r.MixingTime(1.0/8) < r.MixingTime(1.0/16)) {
		t.Error("smaller eps must need more steps")
	}
	if r.SpectralGap <= 0 || r.SpectralGap >= 1 {
		t.Errorf("gap = %f out of (0,1)", r.SpectralGap)
	}
}
