package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiGNM(t *testing.T) {
	g := ErdosRenyiGNM(100, 300, 1)
	if g.NumNodes() != 100 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if g.NumEdges() != 300 {
		t.Fatalf("m = %d, want 300", g.NumEdges())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiGNMCapped(t *testing.T) {
	g := ErdosRenyiGNM(5, 100, 1)
	if g.NumEdges() != 10 {
		t.Fatalf("m = %d, want complete graph's 10", g.NumEdges())
	}
}

func TestErdosRenyiGNP(t *testing.T) {
	g := ErdosRenyiGNP(200, 0.05, 7)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Expected edges = p * C(200,2) = 0.05*19900 = 995; allow wide slack.
	m := g.NumEdges()
	if m < 700 || m > 1300 {
		t.Errorf("GNP edges = %d, expected around 995", m)
	}
	if g0 := ErdosRenyiGNP(50, 0, 1); g0.NumEdges() != 0 {
		t.Errorf("p=0 produced %d edges", g0.NumEdges())
	}
	if g1 := ErdosRenyiGNP(10, 1, 1); g1.NumEdges() != 45 {
		t.Errorf("p=1 produced %d edges, want 45", g1.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 42)
	if g.NumNodes() != 500 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if lcc, _ := graph.LargestComponent(g); lcc.NumNodes() != g.NumNodes() {
		t.Error("BA graph should be connected")
	}
	// m0 clique + m edges per new node.
	want := int64(3 * 2 / 2 * 2 / 2) // C(4,2) = 6
	want = 6 + int64(500-4)*3
	if g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Preferential attachment should produce a hub noticeably above m.
	if g.MaxDegree() < 10 {
		t.Errorf("max degree %d suspiciously small for BA", g.MaxDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(200, 2, 9)
	b := BarabasiAlbert(200, 2, 9)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	diff := false
	a.Edges(func(u, v int32) bool {
		if !b.HasEdge(u, v) {
			diff = true
			return false
		}
		return true
	})
	if diff {
		t.Error("same seed produced different edge sets")
	}
	c := BarabasiAlbert(200, 2, 10)
	same := true
	a.Edges(func(u, v int32) bool {
		if !c.HasEdge(u, v) {
			same = false
			return false
		}
		return true
	})
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestHolmeKim(t *testing.T) {
	g := HolmeKim(500, 3, 0.8, 11)
	if g.NumNodes() != 500 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if lcc, _ := graph.LargestComponent(g); lcc.NumNodes() != g.NumNodes() {
		t.Error("Holme-Kim graph should be connected")
	}
	// Triad formation should yield clearly more triangles than plain BA.
	ba := BarabasiAlbert(500, 3, 11)
	if tri(g) <= tri(ba) {
		t.Errorf("HolmeKim triangles %d <= BA triangles %d", tri(g), tri(ba))
	}
}

func tri(g *graph.Graph) int64 {
	var n int64
	g.Edges(func(u, v int32) bool {
		n += int64(g.CommonNeighbors(u, v))
		return true
	})
	return n / 3
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(300, 6, 0.1, 3)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 300 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	m := g.NumEdges()
	if m < 850 || m > 900 {
		t.Errorf("WS edges = %d, want ~900", m)
	}
}

func TestPowerLawConfiguration(t *testing.T) {
	g := PowerLawConfiguration(2000, 2.5, 2, 100, 5)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() < 1500 {
		t.Errorf("suspiciously few edges: %d", g.NumEdges())
	}
	if g.MaxDegree() < 10 {
		t.Errorf("max degree %d too small for power law", g.MaxDegree())
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(200, 4, 8)
	if err := graph.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Stub matching drops a few edges; degrees should be close to 4.
	low := 0
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(int32(v))
		if d > 4 {
			t.Fatalf("degree %d > 4", d)
		}
		if d < 3 {
			low++
		}
	}
	if low > 20 {
		t.Errorf("%d nodes with degree < 3", low)
	}
}

func TestFixtures(t *testing.T) {
	if g := Complete(5); g.NumEdges() != 10 || g.MaxDegree() != 4 {
		t.Errorf("K5 wrong: %v", g)
	}
	if g := Cycle(6); g.NumEdges() != 6 || g.MaxDegree() != 2 {
		t.Errorf("C6 wrong: %v", g)
	}
	if g := Path(6); g.NumEdges() != 5 {
		t.Errorf("P6 wrong: %v", g)
	}
	if g := Star(7); g.NumEdges() != 6 || g.Degree(0) != 6 {
		t.Errorf("star wrong: %v", g)
	}
	fig := PaperFigure1()
	if fig.NumNodes() != 4 || fig.NumEdges() != 5 {
		t.Errorf("figure 1 graph wrong: %v", fig)
	}
	if tri(fig) != 2 {
		t.Errorf("figure 1 graph has %d triangles, want 2", tri(fig))
	}
	lol := Lollipop(5, 4)
	if lcc, _ := graph.LargestComponent(lol); lcc.NumNodes() != 9 || lol.NumNodes() != 9 || lol.NumEdges() != 14 {
		t.Errorf("lollipop wrong: %v", lol)
	}
	tt := TwoTriangles()
	if tri(tt) != 2 || tt.NumEdges() != 7 {
		t.Errorf("two-triangles wrong: %v", tt)
	}
}
