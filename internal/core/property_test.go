package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// randomConnectedGraph builds a small random connected graph from quick's
// raw bytes: a random spanning tree plus extra random edges.
func randomConnectedGraph(raw []byte, n int) *graph.Graph {
	if n < 6 {
		n = 6
	}
	rng := rand.New(rand.NewSource(int64(len(raw)) + 12345))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	for _, x := range raw {
		u := int32(x) % int32(n)
		v := int32(x>>3) % int32(n)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// Property: for any small connected graph and any method configuration, the
// estimator runs without error, produces a concentration vector that is
// non-negative and sums to 1 (when any valid sample was seen), and counts
// every window as either valid or skipped.
func TestEstimatorInvariantsQuick(t *testing.T) {
	f := func(raw []byte, kSel, dSel uint8, css, nb bool) bool {
		g := randomConnectedGraph(raw, 10+int(kSel)%20)
		k := 3 + int(kSel)%3
		d := 1 + int(dSel)%k
		if k >= 4 && d == 1 {
			// Stars are invisible under d=1 (alpha=0); the invariants below
			// still hold, but keep the property focused on full-rank methods.
			d = 2
		}
		cfg := MultiConfig{Sizes: []int{k}, D: d, CSS: css, NB: nb, Seed: int64(kSel)*7 + int64(dSel)}
		client := access.NewGraphClient(g)
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			return false
		}
		multi, err := est.Run(400)
		if err != nil {
			return false
		}
		res := multi.Results[k]
		if res.Steps != 400 {
			return false
		}
		if res.ValidSamples < 0 || res.ValidSamples > res.Steps {
			return false
		}
		conc := res.Concentration()
		sum := 0.0
		for _, c := range conc {
			if c < 0 || math.IsNaN(c) {
				return false
			}
			sum += c
		}
		if res.ValidSamples > 0 && math.Abs(sum-1) > 1e-9 {
			return false
		}
		if res.ValidSamples == 0 && sum != 0 {
			return false
		}
		// Raw type counts must sum to the number of valid samples.
		var tc int64
		for _, c := range res.TypeCounts {
			tc += c
		}
		return tc == int64(res.ValidSamples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CSS sampling probability is strictly positive and no larger than
// α·(max interior weight) for any connected k-subgraph the walk can emit,
// and invariant under node-order permutations of the same subgraph.
func TestSamplingProbabilityPermutationInvariant(t *testing.T) {
	g := gen.HolmeKim(50, 3, 0.7, 9)
	client := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(4))
	sp := walk.NewSpace(client, 2)
	// Draw connected 4-node samples by short walks on G(2).
	for trial := 0; trial < 50; trial++ {
		w := walk.New(sp, false, rng)
		s1 := w.Current()
		s2 := w.Step()
		s3 := w.Step()
		set := map[int32]bool{}
		for _, s := range []walk.State{s1, s2, s3} {
			for i := 0; i < s.Len(); i++ {
				set[s.Node(i)] = true
			}
		}
		if len(set) != 4 {
			continue
		}
		nodes := make([]int32, 0, 4)
		for v := range set {
			nodes = append(nodes, v)
		}
		base := SamplingProbability(client, 4, 2, false, nodes)
		if base <= 0 {
			t.Fatalf("non-positive p̃ for %v", nodes)
		}
		// Permute the node order: p̃ must not change.
		perm := []int32{nodes[3], nodes[1], nodes[0], nodes[2]}
		if got := SamplingProbability(client, 4, 2, false, perm); math.Abs(got-base) > 1e-12*base {
			t.Fatalf("p̃ depends on node order: %g vs %g", got, base)
		}
	}
}

// Property: the CSS estimator and the plain estimator have the same
// expectation (Lemma 4); over a long run on a fixed graph their estimates
// agree within statistical noise.
func TestCSSMatchesPlainExpectation(t *testing.T) {
	g := gen.HolmeKim(60, 3, 0.6, 21)
	client := access.NewGraphClient(g)
	run := func(css bool) []float64 {
		return runSize(t, client, MultiConfig{Sizes: []int{4}, D: 2, CSS: css, Seed: 5}, 150000).Concentration()
	}
	plain, css := run(false), run(true)
	for i := range plain {
		if plain[i] < 0.01 {
			continue
		}
		if math.Abs(plain[i]-css[i])/plain[i] > 0.15 {
			t.Errorf("type %d: plain %.4f vs css %.4f", i+1, plain[i], css[i])
		}
	}
}

// Property: Lemma 5 — on identical samples the CSS weights have no larger
// spread than the plain weights. We check the variance of per-sample weights
// for the triangle type gathered from one walk.
func TestCSSVarianceReduction(t *testing.T) {
	g := gen.HolmeKim(200, 3, 0.7, 31)
	client := access.NewGraphClient(g)
	sp := walk.NewSpace(client, 1)
	rng := rand.New(rand.NewSource(8))
	w := walk.New(sp, false, rng)
	var prev2, prev1 walk.State
	prev2 = w.Current()
	prev1 = w.Step()
	var plain, css []float64
	alphaTri := float64(graphlet.Alpha(3, 1, 2))
	for i := 0; i < 60000; i++ {
		cur := w.Step()
		a, b, c := prev2.Node(0), prev1.Node(0), cur.Node(0)
		prev2, prev1 = prev1, cur
		if a == c || a == b || b == c {
			continue
		}
		if !(client.HasEdge(a, b) && client.HasEdge(b, c) && client.HasEdge(a, c)) {
			continue
		}
		// Triangle sample: plain weight 1/(α·π̃e) with π̃e = 1/deg(b);
		// CSS weight 1/p̃.
		plain = append(plain, float64(client.Degree(b))/alphaTri)
		p := SamplingProbability(client, 3, 1, false, []int32{a, b, c})
		css = append(css, 1/p)
	}
	if len(plain) < 100 {
		t.Skip("too few triangle samples")
	}
	if v1, v2 := variance(css), variance(plain); v1 > v2 {
		t.Errorf("CSS weight variance %.4f > plain %.4f (Lemma 5 violated)", v1, v2)
	}
}

func variance(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs))
}

// TestTinyGraphs: the estimator must behave on degenerate inputs — the
// smallest graphs where windows can never cover k nodes.
func TestTinyGraphs(t *testing.T) {
	// A single edge: k=3 samples can never exist; all windows invalid.
	g := graph.FromEdgeList(2, [][2]int32{{0, 1}})
	client := access.NewGraphClient(g)
	res := runSize(t, client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 1}, 100)
	if res.ValidSamples != 0 {
		t.Errorf("valid samples on a single edge: %d", res.ValidSamples)
	}
	conc := res.Concentration()
	if conc[0] != 0 || conc[1] != 0 {
		t.Errorf("concentration on a single edge: %v", conc)
	}

	// A triangle: every k=3 window that covers 3 nodes is the triangle.
	tri := gen.Complete(3)
	c := runSize(t, access.NewGraphClient(tri), MultiConfig{Sizes: []int{3}, D: 1, Seed: 2}, 1000).Concentration()
	if c[1] < 0.999 {
		t.Errorf("triangle graph concentration: %v", c)
	}
}
