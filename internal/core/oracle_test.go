package core

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// stateGraph is G(d) of a small graph, enumerated: its states and, per
// state, the indices of its neighbors.
type stateGraph struct {
	states []walk.State
	adj    [][]int
	twoR   float64 // 2|R(d)| = Σ deg
}

// rowGraph is a graph's adjacency read from its Neighbors rows only, as
// rows and as a dense matrix. The oracle's truth is built from it, so it
// shares no HasEdge path (hub bitsets included) with the estimator it checks.
type rowGraph struct {
	rows [][]int32
	adj  [][]bool
}

func newRowGraph(g *graph.Graph) *rowGraph {
	n := g.NumNodes()
	rg := &rowGraph{rows: make([][]int32, n), adj: make([][]bool, n)}
	for v := range int32(n) {
		rg.rows[v] = slices.Clone(g.Neighbors(v))
		rg.adj[v] = make([]bool, n)
		for _, u := range rg.rows[v] {
			rg.adj[v][u] = true
		}
	}
	return rg
}

// counts returns the exact k-node graphlet counts: ESU enumerates every
// connected induced k-node subgraph once, from its smallest node, and each
// is classified from the dense matrix.
func (rg *rowGraph) counts(k int) []int64 {
	counts := make([]int64, graphlet.Count(k))
	pairs := graphlet.Pairs(k)
	sub := make([]int32, 0, k)
	var extend func(root int32, ext []int32)
	extend = func(root int32, ext []int32) {
		if len(sub) == k {
			var code uint16
			for bit, p := range pairs {
				if rg.adj[sub[p[0]]][sub[p[1]]] {
					code |= 1 << bit
				}
			}
			counts[graphlet.ClassifyCode(k, code)]++
			return
		}
		for len(ext) > 0 {
			w := ext[len(ext)-1]
			ext = ext[:len(ext)-1]
			next := slices.Clone(ext)
			for _, u := range rg.rows[w] {
				if u > root && !slices.ContainsFunc(sub, func(x int32) bool { return rg.adj[x][u] }) {
					next = append(next, u)
				}
			}
			sub = append(sub, w)
			extend(root, next)
			sub = sub[:len(sub)-1]
		}
	}
	for v := range int32(len(rg.rows)) {
		extend(v, []int32{v})
	}
	return counts
}

// shared returns the number of nodes s and t share.
func shared(s, t walk.State) int {
	c := 0
	for i := range s.Len() {
		if t.Contains(s.Node(i)) {
			c++
		}
	}
	return c
}

// enumerateStateGraph lists every connected d-node subset of g and joins two
// of them iff they share d-1 nodes (for d = 1, iff they are adjacent in g).
func enumerateStateGraph(g *rowGraph, d int) *stateGraph {
	var sets [][]int32
	for v := range int32(len(g.rows)) {
		sets = append(sets, []int32{v})
	}
	for size := 2; size <= d; size++ {
		seen := map[walk.State]bool{}
		var next [][]int32
		for _, set := range sets {
			for _, u := range set {
				for _, x := range g.rows[u] {
					if walk.StateOf(set...).Contains(x) {
						continue
					}
					grown := append(append([]int32(nil), set...), x)
					if s := walk.StateOf(grown...); !seen[s] {
						seen[s] = true
						next = append(next, grown)
					}
				}
			}
		}
		sets = next
	}
	sg := &stateGraph{adj: make([][]int, len(sets))}
	for _, set := range sets {
		sg.states = append(sg.states, walk.StateOf(set...))
	}
	for i, s := range sg.states {
		for j, t := range sg.states {
			if i == j {
				continue
			}
			if d == 1 && g.adj[s.Node(0)][t.Node(0)] || d > 1 && shared(s, t) == d-1 {
				sg.adj[i] = append(sg.adj[i], j)
			}
		}
		sg.twoR += float64(len(sg.adj[i]))
	}
	return sg
}

// forEachWindow calls fn with every l-state path of the stationary walk on
// sg and its probability: π(X_0) = deg/2|R(d)|, then 1/deg per step; under
// NB, steps after the first draw among the deg-1 states other than the
// previous one, and a degree-1 state forces the backtrack.
func (sg *stateGraph) forEachWindow(l int, nb bool, fn func(path []int, p float64)) {
	path := make([]int, 0, l)
	var extend func(p float64)
	extend = func(p float64) {
		if len(path) == l {
			fn(path, p)
			return
		}
		cur := path[len(path)-1]
		deg := len(sg.adj[cur])
		for _, next := range sg.adj[cur] {
			q := p / float64(deg)
			if nb && len(path) > 1 {
				prev := path[len(path)-2]
				switch {
				case deg == 1:
					q = p
				case next == prev:
					continue
				default:
					q = p / float64(deg-1)
				}
			}
			path = append(path, next)
			extend(q)
			path = path[:len(path)-1]
		}
	}
	for s := range sg.states {
		path = append(path[:0], s)
		extend(float64(len(sg.adj[s])) / sg.twoR)
	}
}

// oracleRow is one estimator configuration of TestEstimatorUnbiasedExactly.
type oracleRow struct {
	name         string
	g            *graph.Graph
	sizes        []int
	d            int
	css, nb      bool
	recoverStars bool // k = 4, d = 1: also recover the 3-stars from starTerm
	published    bool // k = 5, d = 4: use Table 3's printed α, errata included
}

// TestEstimatorUnbiasedExactly proves windowSample unbiased by enumeration:
// every l-state window of the stationary walk on G(d) of a small graph is
// weighted by its probability, and 2|R(d)|·E[weight_i] must equal the exact
// count of type i — or exactly 0 for a type the walk cannot see (α = 0).
// Under RecoverStars the recovered 3-star weight must equal the 3-star count,
// and with the α that Table 3 prints for SRW(4), each of the five erratum
// types must come out at exactly half its count.
func TestEstimatorUnbiasedExactly(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hk12", gen.HolmeKim(12, 2, 0.6, 3)},
		{"ba11", gen.BarabasiAlbert(11, 3, 5)},
	}
	var rows []oracleRow
	for _, gr := range graphs {
		for k := 3; k <= graphlet.MaxK; k++ {
			for d := 1; d <= k; d++ {
				for _, css := range []bool{false, true} {
					if css && k-d+1 <= 2 {
						continue
					}
					for _, nb := range []bool{false, true} {
						cfg := MultiConfig{Sizes: []int{k}, D: d, CSS: css, NB: nb}
						rows = append(rows, oracleRow{
							name: fmt.Sprintf("%s/%s_k%d", gr.name, cfg.MethodName(), k),
							g:    gr.g, sizes: []int{k}, d: d, css: css, nb: nb,
						})
					}
				}
			}
		}
		rows = append(rows, oracleRow{name: gr.name + "/SRW1_k4_stars", g: gr.g, sizes: []int{4}, d: 1, recoverStars: true})
	}
	if len(rows) != 72+2 {
		t.Fatalf("%d rows, want 72 configurations and 2 star rows", len(rows))
	}
	hk, ba := graphs[0].g, graphs[1].g
	rows = append(rows,
		oracleRow{name: "hk12/SRW2CSS_k345", g: hk, sizes: []int{3, 4, 5}, d: 2, css: true},
		oracleRow{name: "ba11/SRW4_k5_published", g: ba, sizes: []int{5}, d: 4, published: true},
	)
	// The same hk12 rows again over the graph read back from disk: as a v1
	// file through the mapping, and as a v2 file of one-row blocks through a
	// decode cache that holds one page, so every row read evicts.
	for _, lp := range openHK12(t, hk) {
		for _, row := range rows {
			if row.g == hk {
				row.name = lp.name + "/" + row.name
				row.g = lp.g
				rows = append(rows, row)
			}
		}
	}
	rows = append(rows, wheelRows(t)...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkUnbiased(t, row) })
	}
}

// openHK12 saves hk as a v1 and as a v2 .gcsr file and opens them back,
// mapped; the graphs are closed when the test ends.
func openHK12(t *testing.T, hk *graph.Graph) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "hk12.gcsr"), filepath.Join(dir, "hk12.v2.gcsr")
	if err := graph.Save(v1, hk); err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveOpts(v2, hk, graph.SaveOptions{Version: 2, BlockBytes: 1}); err != nil {
		t.Fatal(err)
	}
	g1, err := graph.OpenMapped(v1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g1.Close() })
	g2, err := graph.OpenMappedOpts(v2, graph.OpenOptions{BlockCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g2.Close() })
	if _, ok := g2.BlockCacheStats(); !ok {
		t.Fatal("the v2 file did not open block-compressed")
	}
	return []struct {
		name string
		g    *graph.Graph
	}{{"hk12v1", g1}, {"hk12v2", g2}}
}

// wheel returns hub 0 joined to a rim of the given length, plus a chord
// (r, r+2) every chordEvery rim nodes (none when chordEvery is 0); a chord
// closes two rim triangles into a 4-clique with the hub.
func wheel(rim, chordEvery int32) *graph.Graph {
	b := graph.NewBuilder(int(rim) + 1)
	for i := int32(1); i <= rim; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%rim+1)
	}
	for r := int32(1); chordEvery > 0 && r < rim; r += chordEvery {
		b.AddEdge(r, r+2)
	}
	return b.Build()
}

// wheelRows are the oracle rows on two wheels. wheel71 is hub 0 joined to
// a 70-node rim with 10 chords. The hub's degree (70) reaches the graph
// layer's hub bitset rows, so every HasEdge against the hub is a bitset
// probe, and every d = 3 draw from a state holding the hub reads the hub's
// row through it. Its rows are every (CSS, NB) row with k <= 4 at d <= 2,
// the star row, the k = 5, d = 1 rows and k = 4 at d = 3; k = 5 at d = 2
// enumerates too many windows for tier-1. wheel49 is hub 0 joined to a
// 48-node rim without chords: its hub's degree (48) stays below the hub
// rows, so its k = 4, d = 3 rows draw by galloping the hub's row, and count
// by galloping intersection (48 >= 16 times a rim node's degree).
func wheelRows(t *testing.T) []oracleRow {
	wheel71, wheel49 := wheel(70, 7), wheel(48, 0)
	if wheel71.HubRow(0).IsZero() || !wheel49.HubRow(0).IsZero() {
		t.Fatal("wheel71's hub must own a hub row and wheel49's must not")
	}
	var rows []oracleRow
	for k := 3; k <= graphlet.MaxK; k++ {
		dMax := 2
		if k == 5 {
			dMax = 1
		}
		for d := 1; d <= dMax; d++ {
			for _, css := range []bool{false, true} {
				if css && k-d+1 <= 2 {
					continue
				}
				for _, nb := range []bool{false, true} {
					cfg := MultiConfig{Sizes: []int{k}, D: d, CSS: css, NB: nb}
					rows = append(rows, oracleRow{
						name: fmt.Sprintf("wheel71/%s_k%d", cfg.MethodName(), k),
						g:    wheel71, sizes: []int{k}, d: d, css: css, nb: nb,
					})
				}
			}
		}
	}
	rows = append(rows, oracleRow{name: "wheel71/SRW1_k4_stars", g: wheel71, sizes: []int{4}, d: 1, recoverStars: true})
	for _, w := range []struct {
		name string
		g    *graph.Graph
	}{{"wheel71", wheel71}, {"wheel49", wheel49}} {
		for _, nb := range []bool{false, true} {
			cfg := MultiConfig{Sizes: []int{4}, D: 3, NB: nb}
			rows = append(rows, oracleRow{
				name: fmt.Sprintf("%s/%s_k4", w.name, cfg.MethodName()),
				g:    w.g, sizes: []int{4}, d: 3, nb: nb,
			})
		}
	}
	return rows
}

func checkUnbiased(t *testing.T, row oracleRow) {
	client := access.NewGraphClient(row.g)
	space := walk.NewSpace(client, row.d)
	truth := newRowGraph(row.g)
	sg := enumerateStateGraph(truth, row.d)
	for i, s := range sg.states {
		if got, want := space.StateDegree(s), len(sg.adj[i]); got != want {
			t.Fatalf("state %v: StateDegree %d, enumerated %d", s, got, want)
		}
	}
	params := make([]sizeParams, len(row.sizes))
	expect := make([][]float64, len(row.sizes))
	maxL := 0
	for i, k := range row.sizes {
		params[i] = newSizeParams(k, row.d, row.css)
		expect[i] = make([]float64, len(params[i].alpha))
		maxL = max(maxL, params[i].l)
	}
	if row.published {
		for i, half := range graphlet.PaperTable3Five[4] {
			params[0].alpha[i] = 2 * half
		}
	}
	var star float64
	// Each path is pushed into the ring as a walk would push it, so the
	// adjacency a window reads is what the pushes carried. Paths come in
	// depth-first order, so only the states after the prefix a path shares
	// with the one before are pushed again: placing state j drops the nodes
	// only later states of the old path held, and what the masks keep are
	// answers about node pairs, true on any path. A shorter size's window is
	// the prefix of the longest one: the prefix of a stationary window is
	// itself stationary.
	r := ring{maxL: maxL, d: row.d}
	r.reset()
	var last []int
	sg.forEachWindow(maxL, row.nb, func(path []int, p float64) {
		j := 0
		for j < len(last) && last[j] == path[j] {
			j++
		}
		last = append(last[:0], path...)
		r.pushed = j
		for ; j < maxL; j++ {
			from := walk.State{}
			if j > 0 {
				from = sg.states[path[j-1]]
			}
			r.push(space, sg.states[path[j]], len(sg.adj[path[j]]), from)
		}
		for i := range params {
			s := &params[i]
			typ, weight, err := r.windowSample(client, space, s, row.nb, 0)
			if err != nil {
				t.Fatal(err)
			}
			if typ >= 0 {
				expect[i][typ] += p * weight
			}
		}
		if row.recoverStars {
			star += p * starTerm(len(sg.adj[path[maxL-1]]))
		}
	})

	for i, k := range row.sizes {
		counts := truth.counts(k)
		if row.recoverStars {
			var want float64
			for _, nv := range truth.rows {
				dv := float64(len(nv))
				want += dv * (dv - 1) * (dv - 2) / 6
			}
			if got := sg.twoR * star; math.Abs(got-want) > 1e-9*want {
				t.Errorf("2|E|·E[star term] = %v, want Σ C(d_v,3) = %v", got, want)
			}
			// Recovery is linear, so it applies to the expectations; it
			// rewrites expect[i]'s 3-star entry in place.
			r := &Result{Weights: expect[i], StarAcc: star}
			r.applyStarRecovery()
		}
		for typ, c := range counts {
			want := float64(c)
			switch {
			case row.published && slices.Contains(graphlet.Table3SRW4Errata, typ+1):
				if c == 0 {
					t.Errorf("g5_%d does not occur, so its erratum goes unchecked", typ+1)
				}
				want /= 2
			case graphlet.Catalog(k)[typ].Alpha[row.d] == 0 && !row.recoverStars:
				want = 0
			}
			got := sg.twoR * expect[i][typ]
			if want == 0 && got != 0 || math.Abs(got-want) > 1e-9*want {
				t.Errorf("k=%d g%d_%d: 2|R|·E[weight] = %v, want %v", k, k, typ+1, got, want)
			}
		}
	}
}

// TestRingWindows pins the mirrored ring, the only code between the walk and
// windowSample, for maxL = 1..5: after every push, every window the ring
// still retains (each size's pending one among them) is the slice of the
// pushed sequence it should be, with StateDegree's degrees, and so it stays
// after a snapshot → restore round trip and the pushes that follow it.
func TestRingWindows(t *testing.T) {
	client := access.NewGraphClient(gen.HolmeKim(40, 3, 0.6, 42))
	for _, cfg := range []MultiConfig{
		{Sizes: []int{4}, D: 4},
		{Sizes: []int{3, 4}, D: 3},
		{Sizes: []int{3, 4, 5}, D: 3, NB: true},
		{Sizes: []int{3, 4, 5}, D: 2},
		{Sizes: []int{5, 3, 4}, D: 1, CSS: true},
	} {
		space := walk.NewSpace(client, cfg.D)
		wk := newWalker(client, cfg, 7)
		wk.start()
		seq := []walk.State{wk.w.Current()}
		check := func(when string, wk *walker) {
			t.Helper()
			r := &wk.ring
			for _, s := range wk.sizes {
				for j := max(0, r.pushed-r.maxL); j+s.l <= r.pushed; j++ {
					states, degs := r.window(j, s.l)
					for i := range s.l {
						if want := seq[j+i]; states[i] != want || degs[i] != space.StateDegree(want) {
							t.Fatalf("maxL %d %s, %d pushed: size %d window %d state %d is %v (deg %d), want %v (deg %d)",
								r.maxL, when, r.pushed, s.k, j, i, states[i], degs[i], want, space.StateDegree(want))
						}
					}
				}
			}
		}
		check("start", wk)
		for range 3*wk.ring.maxL + 2 {
			from := wk.w.Current()
			seq = append(seq, wk.w.Step())
			wk.push(seq[len(seq)-1], from)
			check("push", wk)
		}
		for i, s := range wk.sizes {
			wk.accs[i].Done = wk.ring.pushed - s.l
		}
		re := newWalker(client, cfg, 7)
		if err := re.restore(wk.snapshot()); err != nil {
			t.Fatal(err)
		}
		check("restored", re)
		for range 2*wk.ring.maxL + 1 {
			seq = append(seq, wk.w.Step())
			from := re.w.Current()
			re.push(re.w.Step(), from)
			check("pushed after restore", re)
		}
	}
}
