package graphletrw

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/gen"
)

func TestFacadeEstimateAgainstExact(t *testing.T) {
	g := gen.HolmeKim(2000, 4, 0.6, 5)
	lcc, _ := LargestComponent(g)
	client := NewClient(lcc)
	res, err := Estimate(client, Config{Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 9}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Results[3].Concentration()
	want := ExactConcentration(lcc, 3)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.02 {
			t.Errorf("type %d: got %.4f, want %.4f", i+1, got[i], want[i])
		}
	}
}

func TestFacadeCatalogAndAlpha(t *testing.T) {
	if len(Catalog(5)) != 21 {
		t.Errorf("Catalog(5) has %d entries", len(Catalog(5)))
	}
	if Alpha(3, 1, 2) != 6 {
		t.Errorf("Alpha(3,1,triangle) = %d, want 6", Alpha(3, 1, 2))
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %v", g)
	}
	if cc := ClusteringCoefficient(g); math.Abs(cc-1) > 1e-12 {
		t.Errorf("triangle clustering = %f", cc)
	}
}

func TestFacadeCountingClient(t *testing.T) {
	g := gen.Cycle(50)
	c := NewCountingClient(NewClient(g), g.NumNodes())
	if _, err := Estimate(c, Config{Sizes: []int{3}, D: 1, Seed: 1}, 500); err != nil {
		t.Fatal(err)
	}
	if c.Stats().NeighborCalls == 0 {
		t.Error("no API accounting")
	}
}

// The HTTP crawl client reports transport failures by panicking; the engine
// turns that into the run's error wherever it happens — here on the very
// first call, the seed draw, with one walker and with several.
func TestFacadeEstimateOverDeadEndpoint(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, walkers := range []int{1, 3} {
		client, _ := apiserver.NewClient(context.Background(), dead.URL, nil)
		_, err := Estimate(client, Config{Sizes: []int{3}, D: 1, Seed: 1, Walkers: walkers}, 500)
		if err == nil || !strings.Contains(err.Error(), "apiserver client") {
			t.Errorf("walkers=%d: err = %v, want the transport failure as an error", walkers, err)
		}
	}
}

func TestFacadeSimilarity(t *testing.T) {
	if s := Similarity([]float64{1, 0}, []float64{1, 0}); math.Abs(s-1) > 1e-12 {
		t.Errorf("Similarity = %f", s)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := gen.HolmeKim(500, 3, 0.6, 3)
	ws := NewWedgeSampler(g)
	if ws.TotalWedges <= 0 {
		t.Error("wedge sampler has no wedges")
	}
	ps := NewPathSampler(g)
	if ps.TotalPaths <= 0 {
		t.Error("path sampler has no paths")
	}
	if TwoR(g, 1) != 2*float64(g.NumEdges()) {
		t.Error("TwoR(1) wrong")
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("built %v", g)
	}
	counts := ExactCounts(g, 3)
	if counts[0] != 1 || counts[1] != 0 {
		t.Errorf("counts = %v", counts)
	}
}
