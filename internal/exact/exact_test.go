package exact

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
)

// bruteCounts enumerates all k-subsets of nodes and classifies the connected
// ones — the slowest possible reference.
func bruteCounts(g *graph.Graph, k int) []int64 {
	counts := make([]int64, graphlet.Count(k))
	n := g.NumNodes()
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			code := graphlet.CodeOf(k, func(i, j int) bool {
				return g.HasEdge(int32(idx[i]), int32(idx[j]))
			})
			if t := graphlet.ClassifyCode(k, code); t >= 0 {
				counts[t]++
			}
			return
		}
		for v := start; v < n; v++ {
			idx[pos] = v
			rec(pos+1, v+1)
		}
	}
	rec(0, 0)
	return counts
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"fig1":     gen.PaperFigure1(),
		"k6":       gen.Complete(6),
		"c8":       gen.Cycle(8),
		"p7":       gen.Path(7),
		"star9":    gen.Star(9),
		"lollipop": gen.Lollipop(5, 4),
		"twotri":   gen.TwoTriangles(),
		"ba30":     gen.BarabasiAlbert(30, 3, 1),
		"er40":     gen.ErdosRenyiGNM(40, 90, 2),
		"hk25":     gen.HolmeKim(25, 3, 0.7, 3),
		"ws30":     gen.WattsStrogatz(30, 4, 0.2, 4),
	}
}

func TestESUMatchesBruteForce(t *testing.T) {
	for name, g := range testGraphs() {
		for k := 3; k <= 5; k++ {
			want := bruteCounts(g, k)
			got := CountESU(g, k)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s k=%d type %d (%s): ESU %d, brute %d",
						name, k, i+1, graphlet.ByID(k, i+1).Name, got[i], want[i])
				}
			}
		}
	}
}

// countESUSerial is CountESU on one goroutine: the reference its split over
// root nodes must match.
func countESUSerial(g *graph.Graph, k int) []int64 {
	return countESUWorkers(byDegree(g), k, 1)
}

func TestESUSerialMatchesParallel(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 7)
	for k := 3; k <= 4; k++ {
		s := countESUSerial(g, k)
		p := CountESU(g, k)
		for i := range s {
			if s[i] != p[i] {
				t.Errorf("k=%d type %d: serial %d != parallel %d", k, i+1, s[i], p[i])
			}
		}
	}
}

func TestThreeNodeCountsMatchesESU(t *testing.T) {
	for name, g := range testGraphs() {
		want := CountESU(g, 3)
		got := ThreeNodeCounts(g)
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: fast 3-node %v, ESU %v", name, got, want)
		}
	}
}

func TestFourNodeCountsMatchesESU(t *testing.T) {
	for name, g := range testGraphs() {
		want := CountESU(g, 4)
		got := FourNodeCounts(g)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: 4-node type %d (%s): formula %d, ESU %d",
					name, i+1, graphlet.ByID(4, i+1).Name, got[i], want[i])
			}
		}
	}
}

// TestClosedForms checks counts on graphs with known closed-form answers.
func TestClosedForms(t *testing.T) {
	// K6: C(6,k) cliques, nothing else.
	k6 := gen.Complete(6)
	c3 := CountESU(k6, 3)
	if c3[0] != 0 || c3[1] != 20 {
		t.Errorf("K6 3-node = %v, want [0 20]", c3)
	}
	c4 := CountESU(k6, 4)
	for i := 0; i < 5; i++ {
		if c4[i] != 0 {
			t.Errorf("K6 has non-clique 4-graphlets: %v", c4)
		}
	}
	if c4[5] != 15 {
		t.Errorf("K6 4-cliques = %d, want 15", c4[5])
	}
	c5 := CountESU(k6, 5)
	if c5[20] != 6 {
		t.Errorf("K6 5-cliques = %d, want 6", c5[20])
	}

	// C8: n wedges, n 4-paths (each window of 4 consecutive nodes), n 5-paths.
	c8 := gen.Cycle(8)
	if got := ThreeNodeCounts(c8); got[0] != 8 || got[1] != 0 {
		t.Errorf("C8 3-node = %v, want [8 0]", got)
	}
	four := CountESU(c8, 4)
	if four[0] != 8 { // 4-paths
		t.Errorf("C8 4-paths = %d, want 8", four[0])
	}
	for i := 1; i < 6; i++ {
		if four[i] != 0 {
			t.Errorf("C8 has unexpected 4-node type %d: %v", i+1, four)
		}
	}

	// Star on 9 nodes (8 leaves): C(8,2) wedges, C(8,3) 3-stars, C(8,4) 4-stars.
	st := gen.Star(9)
	if got := ThreeNodeCounts(st); got[0] != 28 || got[1] != 0 {
		t.Errorf("star 3-node = %v, want [28 0]", got)
	}
	four = CountESU(st, 4)
	if four[1] != 56 {
		t.Errorf("star 3-stars = %d, want 56", four[1])
	}
	five := CountESU(st, 5)
	if five[2] != 70 { // 4-star is g5_3
		t.Errorf("star 4-stars = %d, want C(8,4)=70; counts=%v", five[2], five)
	}

	// Paper Figure 1: 2 wedges + 2 triangles (concentrations 0.5/0.5).
	fig := gen.PaperFigure1()
	if got := ThreeNodeCounts(fig); got[0] != 2 || got[1] != 2 {
		t.Errorf("figure-1 graph 3-node = %v, want [2 2]", got)
	}
}

func TestConcentrations(t *testing.T) {
	c := Concentrations([]int64{2, 2})
	if c[0] != 0.5 || c[1] != 0.5 {
		t.Errorf("Concentrations = %v", c)
	}
	z := Concentrations([]int64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero counts should give zeros, got %v", z)
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	// K4: fully transitive.
	if cc := GlobalClusteringCoefficient(gen.Complete(4)); cc < 0.999 || cc > 1.001 {
		t.Errorf("K4 clustering = %f, want 1", cc)
	}
	// Star: no triangles.
	if cc := GlobalClusteringCoefficient(gen.Star(10)); cc != 0 {
		t.Errorf("star clustering = %f, want 0", cc)
	}
	// Figure 1: 3*2/(2+3*2) = 6/8.
	if cc := GlobalClusteringCoefficient(gen.PaperFigure1()); cc < 0.749 || cc > 0.751 {
		t.Errorf("figure-1 clustering = %f, want 0.75", cc)
	}
}

func BenchmarkESU4(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountESU(g, 4)
	}
}

func BenchmarkFourNodeFormulas(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FourNodeCounts(g)
	}
}

// FuzzExactCounts builds a graph of at most 12 nodes from the fuzz bytes —
// the first picks n, each following pair an edge — and checks the fast
// counters against ESU. Small graphs have many equal degrees, so the
// (degree, id) rank ties the forward orientation breaks are exercised.
func FuzzExactCounts(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 6, 7, 7, 8, 8, 6, 9, 10, 10, 11, 11, 9, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int32(data[0]%12) + 1
		b := graph.NewBuilder(int(n))
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int32(data[i])%n, int32(data[i+1])%n)
		}
		g := b.Build()
		want3, want4 := CountESU(g, 3), CountESU(g, 4)
		if got := Triangles(g); got != want3[1] {
			t.Errorf("Triangles = %d, ESU %d", got, want3[1])
		}
		if got := ThreeNodeCounts(g); !reflect.DeepEqual(got, want3) {
			t.Errorf("ThreeNodeCounts = %v, ESU %v", got, want3)
		}
		if got := FourNodeCounts(g); !reflect.DeepEqual(got, want4) {
			t.Errorf("FourNodeCounts = %v, ESU %v", got, want4)
		}
	})
}

// TestFastCountsConcurrentChunks runs the fast counters on a graph of many
// node chunks per worker, with at least four workers, so the shared cursor
// and the shared per-arc triangle array are used concurrently — under -race
// in CI — and the result must still equal ESU's.
func TestFastCountsConcurrentChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	g := gen.HolmeKim(3000, 4, 0.5, 11)
	if chunks := g.NumNodes() / nodeChunk; chunks < 4*runtime.GOMAXPROCS(0) {
		t.Fatalf("%d chunks for %d workers: too few to share", chunks, runtime.GOMAXPROCS(0))
	}
	if got, want := ThreeNodeCounts(g), CountESU(g, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("ThreeNodeCounts = %v, ESU %v", got, want)
	}
	if got, want := FourNodeCounts(g), CountESU(g, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("FourNodeCounts = %v, ESU %v", got, want)
	}
}
