package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// TestConfigValidate checks one-size configurations; TestMultiConfigValidate
// covers the multi-size rules.
func TestConfigValidate(t *testing.T) {
	bad := []MultiConfig{
		{Sizes: []int{2}, D: 1},
		{Sizes: []int{6}, D: 1},
		{Sizes: []int{4}, D: 0},
		{Sizes: []int{4}, D: 5},
		{Sizes: []int{3}, D: 1, BurnIn: -1},
		{Sizes: []int{3}, D: 1, Walkers: 1<<16 + 1}, // more walkers than a state can carry
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := []MultiConfig{
		{Sizes: []int{3}, D: 1},
		{Sizes: []int{5}, D: 2, CSS: true, NB: true},
		{Sizes: []int{4}, D: 4},
		{Sizes: []int{3}, D: 1, Walkers: 1 << 16},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v: %v", c, err)
		}
	}
}

func TestMethodName(t *testing.T) {
	cases := map[string]MultiConfig{
		"SRW1":      {Sizes: []int{3}, D: 1},
		"SRW2CSS":   {Sizes: []int{4}, D: 2, CSS: true},
		"SRW1CSSNB": {Sizes: []int{3, 4}, D: 1, CSS: true, NB: true},
		"SRW2NB":    {Sizes: []int{3}, D: 2, NB: true},
	}
	for want, cfg := range cases {
		if got := cfg.MethodName(); got != want {
			t.Errorf("MethodName(%+v) = %q, want %q", cfg, got, want)
		}
	}
}

// runSize runs cfg for n windows and returns the Result of its first size.
func runSize(t testing.TB, client access.Client, cfg MultiConfig, n int) *Result {
	t.Helper()
	me, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := me.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res.Results[cfg.Sizes[0]]
}

// maxRelErr returns the max relative error over types with non-trivial
// concentration.
func maxRelErr(got, want []float64) float64 {
	worst := 0.0
	for i := range want {
		if want[i] < 1e-9 {
			continue
		}
		re := math.Abs(got[i]-want[i]) / want[i]
		if re > worst {
			worst = re
		}
	}
	return worst
}

// testConvergence runs one long walk and checks the concentration estimate
// approaches the exact value. Long-run convergence is the SLLN guarantee
// (Theorem 1) and validates the full weighting pipeline, including the α
// values where the paper's Table 3 SRW(4) row has errata.
func testConvergence(t *testing.T, g *graph.Graph, k, d int, css, nb bool, steps int, tol float64) {
	t.Helper()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{k}, D: d, CSS: css, NB: nb, Seed: int64(k*100 + d*10 + 1)}
	res := runSize(t, client, cfg, steps)
	exactCounts := exact.CountESU(g, k)
	want := exact.Concentrations(exactCounts)
	got := res.Concentration()
	if re := maxRelErr(got, want); re > tol {
		t.Errorf("%s k=%d on %v: max rel err %.3f > %.3f\n got %v\nwant %v",
			cfg.MethodName(), k, g, re, tol, got, want)
	}
}

// The convergence test graph: small, connected, non-bipartite, containing
// every 3- and 4-node graphlet type and most 5-node types.
func convGraph() *graph.Graph {
	return gen.HolmeKim(40, 3, 0.6, 42)
}

func TestConvergenceK3(t *testing.T) {
	g := convGraph()
	for d := 1; d <= 3; d++ {
		for _, css := range []bool{false, true} {
			for _, nb := range []bool{false, true} {
				testConvergence(t, g, 3, d, css, nb, 400000, 0.05)
			}
		}
	}
}

func TestConvergenceK4(t *testing.T) {
	g := convGraph()
	// d=1 cannot see 3-stars (alpha=0): skip; tested separately.
	for d := 2; d <= 4; d++ {
		testConvergence(t, g, 4, d, false, false, 400000, 0.10)
	}
	testConvergence(t, g, 4, 2, true, false, 400000, 0.10)
	testConvergence(t, g, 4, 2, false, true, 400000, 0.10)
	testConvergence(t, g, 4, 2, true, true, 400000, 0.10)
	// d=3 with CSS exercises the expensive state-degree oracle.
	testConvergence(t, g, 4, 3, true, false, 200000, 0.15)
}

// TestConvergenceK5 includes d=4 (PSRW for 5-node graphlets), which uses the
// α values where this repository deviates from the published Table 3 (see
// graphlet.Table3SRW4Errata): convergence here is the empirical proof that
// the computed values are the correct ones.
func TestConvergenceK5(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence test")
	}
	g := gen.HolmeKim(25, 3, 0.7, 7)
	testConvergence(t, g, 5, 2, false, false, 600000, 0.20)
	testConvergence(t, g, 5, 2, true, false, 600000, 0.20)
	testConvergence(t, g, 5, 3, false, false, 600000, 0.25)
	testConvergence(t, g, 5, 4, false, false, 600000, 0.25)
	testConvergence(t, g, 5, 5, false, false, 600000, 0.25)
}

// TestErrataAdjudication runs SRW4 for k=5 on a graph rich in the five
// erratum graphlets and verifies that using the published (doubled) α for
// them would push estimates away from the truth while the computed α
// converges.
func TestErrataAdjudication(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence test")
	}
	g := gen.HolmeKim(25, 3, 0.7, 7)
	client := access.NewGraphClient(g)
	res := runSize(t, client, MultiConfig{Sizes: []int{5}, D: 4, Seed: 99}, 600000)
	want := exact.Concentrations(exact.CountESU(g, 5))
	got := res.Concentration()

	// Rebuild the estimate as if the published α had been used: divide each
	// erratum type's weight by 2 (weight ∝ 1/α).
	published := make([]float64, len(res.Weights))
	copy(published, res.Weights)
	for _, id := range graphlet.Table3SRW4Errata {
		published[id-1] /= 2
	}
	var sum float64
	for _, w := range published {
		sum += w
	}
	for i := range published {
		published[i] /= sum
	}
	for _, id := range graphlet.Table3SRW4Errata {
		i := id - 1
		if want[i] < 1e-6 {
			continue
		}
		eComputed := math.Abs(got[i]-want[i]) / want[i]
		ePublished := math.Abs(published[i]-want[i]) / want[i]
		if ePublished < eComputed {
			t.Errorf("g5_%d (%s): published alpha closer to truth (%.3f vs %.3f) — errata hypothesis wrong?",
				id, graphlet.ByID(5, id).Name, ePublished, eComputed)
		}
		// Published alpha should be off by roughly a factor-2 underestimate.
		if ePublished < 0.25 {
			t.Errorf("g5_%d: published alpha error only %.3f; expected large bias", id, ePublished)
		}
	}
}

// TestStarBlindnessD1: with d=1 and k=4, 3-stars are invisible (α=0); the
// estimator must not crash and must estimate the relative concentration of
// the remaining types (paper §3.2 footnote 3).
func TestStarBlindnessD1(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	res := runSize(t, client, MultiConfig{Sizes: []int{4}, D: 1, Seed: 3}, 400000)
	if res.Weights[1] != 0 {
		t.Fatalf("3-star weight %f, want 0 under SRW1", res.Weights[1])
	}
	// Relative concentrations among visible types should converge.
	counts := exact.CountESU(g, 4)
	var visSum float64
	for i, c := range counts {
		if i != 1 {
			visSum += float64(c)
		}
	}
	got := res.Concentration()
	for i, c := range counts {
		if i == 1 {
			continue
		}
		want := float64(c) / visSum
		if want < 0.001 {
			continue
		}
		if math.Abs(got[i]-want)/want > 0.12 {
			t.Errorf("visible type %d: got %.4f, want %.4f", i+1, got[i], want)
		}
	}
}

// TestCountEstimation verifies Equation 4: with the known 2|R(d)|, count
// estimates converge to exact counts for d = 1 and 2.
func TestCountEstimation(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	for _, d := range []int{1, 2} {
		res := runSize(t, client, MultiConfig{Sizes: []int{3}, D: d, Seed: 17}, 400000)
		counts := res.Counts(TwoR(g, d))
		want := exact.CountESU(g, 3)
		for i := range want {
			re := math.Abs(counts[i]-float64(want[i])) / float64(want[i])
			if re > 0.08 {
				t.Errorf("d=%d count type %d: got %.1f, want %d (rel err %.3f)",
					d, i+1, counts[i], want[i], re)
			}
		}
	}
}

// TestTwoR verifies the closed forms against the brute-force G(d) size.
func TestTwoR(t *testing.T) {
	for _, g := range []*graph.Graph{gen.PaperFigure1(), gen.BarabasiAlbert(30, 2, 5), gen.Cycle(9)} {
		if got, want := TwoR(g, 1), 2*float64(g.NumEdges()); got != want {
			t.Errorf("TwoR d=1: %f, want %f", got, want)
		}
		// Brute: count adjacent pairs of edges = Σ over nodes C(d,2)... each
		// pair of incident edges is one G(2) edge.
		var want2 float64
		for v := 0; v < g.NumNodes(); v++ {
			d := float64(g.Degree(int32(v)))
			want2 += d * (d - 1) // ordered pairs of incident edges = 2|R2| contribution
		}
		if got := TwoR(g, 2); math.Abs(got-want2) > 1e-9 {
			t.Errorf("TwoR d=2: %f, want %f", got, want2)
		}
	}
	// The paper's Figure 1 example: |R(2)| = 8.
	if got := TwoR(gen.PaperFigure1(), 2); got != 16 {
		t.Errorf("figure-1 2|R(2)| = %f, want 16", got)
	}
}

// TestPaperExampleStationary reproduces the §3.2 worked example: on the
// Figure 1 graph, walking G(2) through states (1,2),(1,3),(3,4) yields
// πe = 1/64 — i.e. π̃e = 2|R(2)|·πe = 16/64 = 1/4 (the inverse-degree
// product of the interior state (1,3), whose degree is 4).
func TestPaperExampleStationary(t *testing.T) {
	g := gen.PaperFigure1()
	client := access.NewGraphClient(g)
	// Manually set the window to the example's three states. Node labels in
	// the paper are 1..4, here 0..3. The window lives in the walker layer.
	wk := newWalker(client, MultiConfig{Sizes: []int{4}, D: 2, Seed: 1}, 1)
	wk.reset()
	wk.start()
	wk.win[0] = stateOf2(0, 1)
	wk.win[1] = stateOf2(0, 2)
	wk.win[2] = stateOf2(2, 3)
	wk.degs[0] = wk.space.StateDegree(wk.win[0])
	wk.degs[1] = wk.space.StateDegree(wk.win[1])
	wk.degs[2] = wk.space.StateDegree(wk.win[2])
	wk.curStart = 0
	if got := wk.pieTilde(3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("pieTilde = %f, want 0.25", got)
	}
}

func TestRunErrors(t *testing.T) {
	g := gen.PaperFigure1()
	client := access.NewGraphClient(g)
	est, _ := NewMultiEstimator(client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 1})
	if _, err := est.Run(0); err == nil {
		t.Error("Run(0) should fail")
	}
	if _, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{9}, D: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCheckpoints(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	est, _ := NewMultiEstimator(client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 23})
	var steps []int
	_, err := est.RunCheckpointsCtx(context.Background(), 1000, 250, func(step int, conc map[int][]float64) {
		steps = append(steps, step)
		if len(conc[3]) != 2 {
			t.Fatalf("conc len %d", len(conc[3]))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{250, 500, 750, 1000}
	if len(steps) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", steps, want)
		}
	}
}

// TestDeterminism: same seed, same run.
func TestDeterminism(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	run := func() []float64 {
		return runSize(t, client, MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 77}, 5000).Concentration()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// TestCSSEqualsPlainExpectation: on the same seed the CSS and plain
// estimators see the same samples; their estimates differ but both converge.
// Here we check the CSS weight p̃ matches the Table 4 closed forms for
// (k=3, d=1): wedge p̃/2 = 1/d₂ (center), triangle p̃/2 = Σ 1/dᵢ.
func TestCSSMatchesTable4K3(t *testing.T) {
	g := gen.PaperFigure1()
	client := access.NewGraphClient(g)
	wk := newWalker(client, MultiConfig{Sizes: []int{3}, D: 1, CSS: true, Seed: 1}, 1)
	wk.reset()
	wk.start()
	pTilde := func(nodes []int32) float64 {
		code := graphlet.CodeOf(3, func(i, j int) bool { return client.HasEdge(nodes[i], nodes[j]) })
		return samplingProbabilityWith(wk.space, wk.sizes[0].chains, false, nodes, code)
	}

	// Triangle {0,1,2}: degrees 3,2,3 -> p̃ = 2(1/3+1/2+1/3).
	nodes := []int32{0, 1, 2}
	want := 2 * (1.0/3 + 1.0/2 + 1.0/3)
	if got := pTilde(nodes); math.Abs(got-want) > 1e-12 {
		t.Errorf("triangle p̃ = %f, want %f", got, want)
	}
	// Wedge {1,0,3}: center 0 (degree 3): only Hamilton path is 1-0-3, both
	// directions -> p̃ = 2·(1/d₀) = 2/3.
	nodes = []int32{0, 1, 3}
	want = 2.0 / 3
	if got := pTilde(nodes); math.Abs(got-want) > 1e-12 {
		t.Errorf("wedge p̃ = %f, want %f", got, want)
	}
}

func stateOf2(u, v int32) walk.State { return walk.StateOf(u, v) }

// TestD1WindowsProbeOnlyUntraversedPairs: consecutive nodes of a d=1 window
// are adjacent by construction, so classification may probe only the
// C(k,2)-(k-1) pairs the walk did not traverse — exactly, on every valid
// window, for the single-size and the shared-walk accumulators alike.
func TestD1WindowsProbeOnlyUntraversedPairs(t *testing.T) {
	g := convGraph()
	counting := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	untraversed := func(k int) int { return k*(k-1)/2 - (k - 1) }
	for _, cfg := range []MultiConfig{
		{Sizes: []int{3}, D: 1, Seed: 5},
		{Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 5},
		{Sizes: []int{4}, D: 1, CSS: true, Seed: 5},
		{Sizes: []int{5}, D: 1, NB: true, Seed: 5},
	} {
		counting.Reset()
		res := runSize(t, counting, cfg, 3000)
		k := cfg.Sizes[0]
		if got, want := counting.Stats().EdgeProbes, int64(res.ValidSamples*untraversed(k)); got != want {
			t.Errorf("%s k=%d: %d edge probes over %d valid windows, want %d", cfg.MethodName(), k, got, res.ValidSamples, want)
		}
	}
	counting.Reset()
	est, err := NewMultiEstimator(counting, MultiConfig{Sizes: []int{3, 4, 5}, D: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for k, r := range res.Results {
		want += int64(r.ValidSamples * untraversed(k))
	}
	if got := counting.Stats().EdgeProbes; got != want {
		t.Errorf("sizes 3,4,5 d=1: %d edge probes, want %d", got, want)
	}
}
