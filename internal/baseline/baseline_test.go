package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestWedgeSamplerTriangles(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"fig1": gen.PaperFigure1(),
		"hk":   gen.HolmeKim(200, 3, 0.6, 1),
		"ba":   gen.BarabasiAlbert(300, 3, 2),
	}
	rng := rand.New(rand.NewSource(1))
	for name, g := range graphs {
		s := NewWedgeSampler(g)
		res := s.Sample(200000, rng)
		wantTri := float64(exact.Triangles(g))
		if wantTri == 0 {
			continue
		}
		if re := relErr(res.TriangleCount(), wantTri); re > 0.05 {
			t.Errorf("%s: triangle estimate %.1f, want %.1f (re=%.3f)", name, res.TriangleCount(), wantTri, re)
		}
		wantCC := exact.GlobalClusteringCoefficient(g)
		if cc := float64(res.Closed) / float64(res.Samples); relErr(cc, wantCC) > 0.05 {
			t.Errorf("%s: closed fraction %.4f, want the clustering coefficient %.4f", name, cc, wantCC)
		}
	}
}

func TestWedgeSamplerTotalWedges(t *testing.T) {
	g := gen.Star(10) // C(9,2) = 36 wedges, all centered at 0
	s := NewWedgeSampler(g)
	if s.totalWedges != 36 {
		t.Errorf("totalWedges = %f, want 36", s.totalWedges)
	}
	rng := rand.New(rand.NewSource(2))
	res := s.Sample(1000, rng)
	if res.Closed != 0 {
		t.Errorf("star has closed wedges: %d", res.Closed)
	}
}

func TestWedgeResultEmpty(t *testing.T) {
	var r WedgeResult
	if r.TriangleCount() != 0 {
		t.Error("empty result should be zero")
	}
}

func TestPathSamplerCounts(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hk": gen.HolmeKim(150, 3, 0.6, 3),
		"ba": gen.BarabasiAlbert(200, 3, 4),
	}
	rng := rand.New(rand.NewSource(5))
	for name, g := range graphs {
		s := NewPathSampler(g)
		res := s.Sample(400000, rng)
		want := exact.CountESU(g, 4)
		got := res.Counts()
		for i := range want {
			if want[i] < 50 {
				continue // too rare for this sample budget
			}
			if re := relErr(got[i], float64(want[i])); re > 0.15 {
				t.Errorf("%s type %d: got %.1f, want %d (re=%.3f)", name, i+1, got[i], want[i], re)
			}
		}
	}
}

func TestPathSamplerTotalPaths(t *testing.T) {
	// P4 (path on 4 nodes): edges (0,1),(1,2),(2,3); τ = 1·1? degrees
	// 1,2,2,1: τ(0,1)=(0)(1)=0, τ(1,2)=1, τ(2,3)=0 ⇒ W=1.
	g := gen.Path(4)
	s := NewPathSampler(g)
	if s.totalPaths != 1 {
		t.Fatalf("totalPaths = %f, want 1", s.totalPaths)
	}
	rng := rand.New(rand.NewSource(6))
	res := s.Sample(1000, rng)
	got := res.Counts()
	if got[0] < 0.99 || got[0] > 1.01 {
		t.Errorf("4-path count = %f, want 1", got[0])
	}
}

func TestWedgeMHRW(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.6, 7)
	client := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(8))
	w := NewWedgeMHRW(client, rng)
	res := w.Run(400000)
	conc := exact.Concentrations(exact.ThreeNodeCounts(g))
	got := res.Concentration()
	if re := relErr(got[1], conc[1]); re > 0.10 {
		t.Errorf("c32 = %.4f, want %.4f (re=%.3f)", got[1], conc[1], re)
	}
	if re := relErr(got[0], conc[0]); re > 0.10 {
		t.Errorf("c31 = %.4f, want %.4f", got[0], conc[0])
	}
}

func TestWedgeMHRWAPICost(t *testing.T) {
	// Each MHRW step touches three nodes' neighborhoods (Algorithm 4): the
	// per-step neighbor-call count must be >= 3x a plain SRW step's.
	g := gen.BarabasiAlbert(500, 3, 9)
	client := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	rng := rand.New(rand.NewSource(10))
	w := NewWedgeMHRW(client, rng)
	client.Reset()
	w.Run(1000)
	st := client.Stats()
	if st.NeighborCalls < 3000 {
		t.Errorf("MHRW neighbor calls = %d for 1000 steps, want >= 3000", st.NeighborCalls)
	}
}

func TestMHRWEmptyResult(t *testing.T) {
	var r MHRWResult
	c := r.Concentration()
	if c[0] != 0 || c[1] != 0 {
		t.Error("empty MHRW concentration should be zeros")
	}
}

// TestMHRWStationary verifies the MH chain's stationary distribution is
// ∝ C(d_v, 2) by visit counting on a small graph.
func TestMHRWStationary(t *testing.T) {
	g := gen.PaperFigure1() // degrees 3,2,3,2 -> weights 3,1,3,1
	client := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(12))
	w := NewWedgeMHRW(client, rng)
	visits := make([]float64, g.NumNodes())
	const steps = 300000
	for i := 0; i < steps; i++ {
		// One MH transition per Run(1) call; count the post-move position.
		w.Run(1)
		visits[w.cur]++
	}
	weights := []float64{3, 1, 3, 1}
	var tot float64 = 8
	for v := range visits {
		want := weights[v] / tot
		got := visits[v] / steps
		if math.Abs(got-want) > 0.02 {
			t.Errorf("node %d visited %.4f, want %.4f", v, got, want)
		}
	}
}
