package walk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestStateOf(t *testing.T) {
	s := StateOf(5, 1, 3)
	if s.Len() != 3 || s.Node(0) != 1 || s.Node(1) != 3 || s.Node(2) != 5 {
		t.Fatalf("StateOf(5,1,3) = %v", s)
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
	if s.String() != "(1,3,5)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestStateOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate nodes")
		}
	}()
	StateOf(1, 1)
}

func TestStateShared(t *testing.T) {
	a := StateOf(1, 2, 3)
	b := StateOf(2, 3, 4)
	if a.Shared(b) != 2 {
		t.Errorf("Shared = %d, want 2", a.Shared(b))
	}
	if a.Shared(a) != 3 {
		t.Errorf("self Shared = %d", a.Shared(a))
	}
}

// Property: StateOf sorts any distinct node set and Shared is symmetric.
func TestStatePropertyQuick(t *testing.T) {
	f := func(a, b, c, d uint16, e2, f2, g2 uint16) bool {
		n1 := dedup([]int32{int32(a), int32(b), int32(c)})
		n2 := dedup([]int32{int32(d), int32(e2), int32(f2), int32(g2)})
		if len(n1) == 0 || len(n2) == 0 {
			return true
		}
		s1 := StateOf(n1...)
		s2 := StateOf(n2...)
		for i := 1; i < s1.Len(); i++ {
			if s1.Node(i-1) >= s1.Node(i) {
				return false
			}
		}
		return s1.Shared(s2) == s2.Shared(s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func dedup(in []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range in {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// bruteG_d builds the full G(d) of g by enumeration, returning for each
// state its neighbor set. Used as ground truth for Space implementations.
func bruteGd(g *graph.Graph, d int) map[State][]State {
	var states []State
	var nodes []int32
	n := g.NumNodes()
	// Enumerate all d-subsets and keep the connected ones.
	var rec func(start int)
	rec = func(start int) {
		if len(nodes) == d {
			if inducedConnected(g, nodes) {
				states = append(states, StateOf(append([]int32(nil), nodes...)...))
			}
			return
		}
		for v := start; v < n; v++ {
			nodes = append(nodes, int32(v))
			rec(v + 1)
			nodes = nodes[:len(nodes)-1]
		}
	}
	rec(0)
	adj := make(map[State][]State, len(states))
	for _, s := range states {
		for _, u := range states {
			if s == u {
				continue
			}
			if d == 1 {
				if g.HasEdge(s.Node(0), u.Node(0)) {
					adj[s] = append(adj[s], u)
				}
			} else if s.Shared(u) == d-1 {
				adj[s] = append(adj[s], u)
			}
		}
	}
	return adj
}

func inducedConnected(g *graph.Graph, nodes []int32) bool {
	if len(nodes) == 0 {
		return false
	}
	seen := map[int32]bool{nodes[0]: true}
	queue := []int32{nodes[0]}
	in := map[int32]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range nodes {
			if in[u] && !seen[u] && g.HasEdge(v, u) {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(seen) == len(nodes)
}

func TestSpaceDegreesMatchBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"fig1":     gen.PaperFigure1(),
		"ba":       gen.BarabasiAlbert(30, 2, 1),
		"lollipop": gen.Lollipop(5, 3),
		"cycle":    gen.Cycle(8),
	}
	for name, g := range graphs {
		c := access.NewGraphClient(g)
		for d := 1; d <= 4; d++ {
			brute := bruteGd(g, d)
			sp := NewSpace(c, d)
			for s, ns := range brute {
				if got := sp.StateDegree(s); got != len(ns) {
					t.Errorf("%s d=%d state %v: degree %d, want %d", name, d, s, got, len(ns))
				}
			}
		}
	}
}

func TestSpaceDNeighborsMatchBruteForce(t *testing.T) {
	g := gen.BarabasiAlbert(25, 2, 3)
	c := access.NewGraphClient(g)
	for d := 3; d <= 4; d++ {
		brute := bruteGd(g, d)
		sp := newSpaceD(c, d)
		for s, want := range brute {
			got := sp.neighbors(s)
			if len(got) != len(want) {
				t.Fatalf("d=%d state %v: %d neighbors, want %d", d, s, len(got), len(want))
			}
			wantSet := map[State]bool{}
			for _, u := range want {
				wantSet[u] = true
			}
			for _, u := range got {
				if !wantSet[u] {
					t.Fatalf("d=%d state %v: unexpected neighbor %v", d, s, u)
				}
			}
		}
	}
}

// TestRandomNeighborUniform checks empirically that RandomNeighbor is uniform
// over the brute-force neighbor set, for each d.
func TestRandomNeighborUniform(t *testing.T) {
	g := gen.PaperFigure1()
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 3; d++ {
		brute := bruteGd(g, d)
		sp := NewSpace(c, d)
		for s, ns := range brute {
			if len(ns) == 0 {
				continue
			}
			counts := map[State]int{}
			const trials = 20000
			for i := 0; i < trials; i++ {
				counts[sp.RandomNeighbor(s, rng)]++
			}
			if len(counts) != len(ns) {
				t.Fatalf("d=%d state %v: sampled %d distinct neighbors, want %d", d, s, len(counts), len(ns))
			}
			want := 1.0 / float64(len(ns))
			for u, cnt := range counts {
				frac := float64(cnt) / trials
				if frac < want*0.85 || frac > want*1.15 {
					t.Errorf("d=%d state %v neighbor %v: freq %.4f, want %.4f", d, s, u, frac, want)
				}
			}
		}
	}
}

// TestSRWStationaryDistribution: on a connected non-bipartite graph, the SRW
// visit frequency of node v converges to deg(v)/2|E|.
func TestSRWStationaryDistribution(t *testing.T) {
	g := gen.PaperFigure1() // degrees 3,2,3,2; 2|E| = 10
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(11))
	w := New(NewSpace(c, 1), false, rng)
	counts := make([]int, g.NumNodes())
	const steps = 400000
	for i := 0; i < steps; i++ {
		counts[w.Step().Node(0)]++
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := float64(g.Degree(int32(v))) / float64(2*g.NumEdges())
		got := float64(counts[v]) / steps
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("node %d visit freq %.4f, want %.4f", v, got, want)
		}
	}
}

// TestNBSRWPreservesStationary: NB-SRW has the same stationary distribution
// as SRW (paper §4.2).
func TestNBSRWPreservesStationary(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 7)
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(13))
	w := New(NewSpace(c, 1), true, rng)
	counts := make([]int, g.NumNodes())
	const steps = 800000
	for i := 0; i < steps; i++ {
		counts[w.Step().Node(0)]++
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := float64(g.Degree(int32(v))) / float64(2*g.NumEdges())
		got := float64(counts[v]) / steps
		if got < want-0.015 || got > want+0.015 {
			t.Errorf("node %d visit freq %.4f, want %.4f", v, got, want)
		}
	}
}

// TestSRW2StationaryDistribution: SRW on G(2) visits each edge-state with
// probability deg_{G(2)}/2|R(2)| and therefore each edge uniformly under the
// expanded chain's pairwise view; here we check the state frequencies.
func TestSRW2StationaryDistribution(t *testing.T) {
	g := gen.PaperFigure1()
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(17))
	sp := NewSpace(c, 2)
	brute := bruteGd(g, 2)
	var twoR int
	for _, ns := range brute {
		twoR += len(ns)
	}
	w := New(sp, false, rng)
	counts := map[State]int{}
	const steps = 400000
	for i := 0; i < steps; i++ {
		counts[w.Step()]++
	}
	for s, ns := range brute {
		want := float64(len(ns)) / float64(twoR)
		got := float64(counts[s]) / steps
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("state %v freq %.4f, want %.4f", s, got, want)
		}
	}
}

// TestNBSRWNeverBacktracks verifies the defining property when degree > 1.
func TestNBSRWNeverBacktracks(t *testing.T) {
	g := gen.BarabasiAlbert(50, 3, 9) // min degree 3 => never forced back
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(19))
	w := New(NewSpace(c, 1), true, rng)
	prev := w.Current()
	cur := w.Step()
	for i := 0; i < 50000; i++ {
		next := w.Step()
		if next == prev {
			t.Fatalf("backtracked at step %d despite degree >= 2", i)
		}
		prev, cur = cur, next
	}
	_ = cur
}

// TestNBSRWDegreeOneBacktracks: on a path's endpoint the walk must return.
func TestNBSRWDegreeOneBacktracks(t *testing.T) {
	g := gen.Path(3) // 0-1-2
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(23))
	var w Walk
	w.Resume(NewSpace(c, 1), WalkState{Cur: StateOf(1)}, true, rng)
	// Step to an endpoint, then the only move is back to 1.
	s := w.Step()
	if s.Node(0) != 0 && s.Node(0) != 2 {
		t.Fatalf("unexpected step to %v", s)
	}
	s2 := w.Step()
	if s2.Node(0) != 1 {
		t.Fatalf("endpoint must backtrack to 1, got %v", s2)
	}
}

func TestWalkStepsCounter(t *testing.T) {
	g := gen.Cycle(10)
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(29))
	var w Walk
	w.Start(NewSpace(c, 1), false, rng)
	w.Burn(7)
	if got := w.State().Steps; got != 7 {
		t.Errorf("Steps = %d, want 7", got)
	}
}

// TestCountingClient verifies API accounting.
func TestCountingClient(t *testing.T) {
	g := gen.Cycle(10)
	c := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	rng := rand.New(rand.NewSource(31))
	w := New(NewSpace(c, 1), false, rng)
	w.Burn(100)
	st := c.Stats()
	if st.DegreeCalls == 0 || st.NeighborCalls == 0 {
		t.Errorf("no API calls recorded: %+v", st)
	}
	if st.UniqueNodes == 0 || st.UniqueNodes > 10 {
		t.Errorf("unique nodes = %d", st.UniqueNodes)
	}
	c.Reset()
	if s := c.Stats(); s.DegreeCalls != 0 || s.UniqueNodes != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

// TestRandomStateValid: initial states must induce connected subgraphs.
func TestRandomStateValid(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 37)
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(41))
	for d := 1; d <= 4; d++ {
		sp := NewSpace(c, d)
		for i := 0; i < 100; i++ {
			s := sp.RandomState(rng)
			if s.Len() != d {
				t.Fatalf("d=%d: state %v has wrong size", d, s)
			}
			var nodes []int32
			nodes = s.Nodes(nodes)
			if !inducedConnected(g, nodes) {
				t.Fatalf("d=%d: state %v not connected", d, s)
			}
		}
	}
}

// TestWalkStateResume: a walk serialized mid-trajectory (State + the RNG
// stream position) and resumed with a fast-forwarded RNG continues the
// exact trajectory of the uninterrupted walk, for both SRW and NB-SRW at
// every supported order.
func TestWalkStateResume(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 19)
	c := access.NewGraphClient(g)
	for d := 1; d <= 4; d++ {
		for _, nb := range []bool{false, true} {
			rng := NewRand(int64(100*d) + 7)
			var w Walk
			w.Start(NewSpace(c, d), nb, &rng.Rand)
			for i := 0; i < 50; i++ {
				w.Step()
			}
			st := w.State()
			pos := rng.Pos()

			var ref []State
			for i := 0; i < 50; i++ {
				ref = append(ref, w.Step())
			}

			rng2 := NewRandAt(int64(100*d)+7, pos)
			var w2 Walk
			w2.Resume(NewSpace(c, d), st, nb, &rng2.Rand)
			if w2.State() != st || st.Steps != 50 {
				t.Fatalf("d=%d nb=%v: resumed walk at %+v, want %+v after 50 steps", d, nb, w2.State(), st)
			}
			for i := 0; i < 50; i++ {
				if got := w2.Step(); got != ref[i] {
					t.Fatalf("d=%d nb=%v: resumed step %d = %v, want %v", d, nb, i, got, ref[i])
				}
			}
		}
	}
}
