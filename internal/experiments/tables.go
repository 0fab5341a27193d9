package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
)

// Table2 reproduces the paper's Table 2: α^k_i/2 for 3- and 4-node graphlets
// under SRW(1..3), computed by Algorithm 2 (the values equal the published
// ones; see the graphlet package tests).
func Table2(w io.Writer) {
	header(w, "Table 2: coefficient alpha/2 for 3,4-node graphlets")
	fmt.Fprintf(w, "%-8s", "walk")
	for _, g := range graphlet.Catalog(3) {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("g3_%d", g.ID))
	}
	for _, g := range graphlet.Catalog(4) {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("g4_%d", g.ID))
	}
	fmt.Fprintln(w)
	for d := 1; d <= 3; d++ {
		fmt.Fprintf(w, "SRW(%d)  ", d)
		for _, g := range graphlet.Catalog(3) {
			a := graphlet.Alpha(3, d, g.ID)
			if a%2 == 0 {
				fmt.Fprintf(w, "%8d", a/2)
			} else {
				fmt.Fprintf(w, "%8s", fmt.Sprintf("%d/2", a))
			}
		}
		for _, g := range graphlet.Catalog(4) {
			fmt.Fprintf(w, "%8d", graphlet.Alpha(4, d, g.ID)/2)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nall values match the published Table 2")
}

// Table3 reproduces the paper's Table 3: α^5_i/2 for the 21 5-node graphlets
// under SRW(1..4). The five SRW(4) entries where the published table
// contradicts the paper's own Appendix B closed form are flagged; this
// repository uses the computed values (validated by the estimator-
// unbiasedness tests in internal/core).
func Table3(w io.Writer) {
	header(w, "Table 3: coefficient alpha/2 for 5-node graphlets")
	errata := map[int]bool{}
	for _, id := range graphlet.Table3SRW4Errata {
		errata[id] = true
	}
	fmt.Fprintf(w, "%-24s", "graphlet")
	for d := 1; d <= 4; d++ {
		fmt.Fprintf(w, "%9s", fmt.Sprintf("SRW(%d)", d))
	}
	fmt.Fprintln(w, "  note")
	for _, g := range graphlet.Catalog(5) {
		fmt.Fprintf(w, "g5_%-4d %-16s", g.ID, g.Name)
		for d := 1; d <= 4; d++ {
			fmt.Fprintf(w, "%9d", g.Alpha[d]/2)
		}
		if errata[g.ID] {
			fmt.Fprintf(w, "  paper prints %d for SRW(4): suspected erratum (2x computed)",
				graphlet.PaperTable3Five[4][g.ID-1])
		}
		fmt.Fprintln(w)
	}
}

// Table4 reproduces the paper's Table 4: the closed-form CSS sampling
// probabilities p̃(X^(l)), verified against the generic Algorithm 3
// implementation on every 4-node occurrence of a test graph and on the
// paper's Figure 1 example for 3-node graphlets.
func Table4(w io.Writer) {
	header(w, "Table 4: CSS sampling probabilities p̃ (closed forms vs Algorithm 3)")
	fmt.Fprintf(w, "%-10s %-8s %-36s %s\n", "graphlet", "walk", "closed form for 2|R|·p/2", "verified")

	// 3-node closed forms on the Figure 1 graph.
	fig := gen.PaperFigure1()
	client := access.NewGraphClient(fig)
	tri := core.SamplingProbability(client, 3, 1, false, []int32{0, 1, 2})
	triWant := 2 * (1.0/3 + 1.0/2 + 1.0/3) // degrees 3,2,3
	fmt.Fprintf(w, "%-10s %-8s %-36s %v\n", "g3_2", "SRW(1)", "1/d1 + 1/d2 + 1/d3", approx(tri, triWant))
	wdg := core.SamplingProbability(client, 3, 1, false, []int32{1, 0, 3})
	fmt.Fprintf(w, "%-10s %-8s %-36s %v\n", "g3_1", "SRW(1)", "1/d_center", approx(wdg, 2.0/3))

	// 4-node closed forms under SRW(2): check every occurrence in a random
	// graph against the structural closed form.
	g := gen.HolmeKim(60, 3, 0.7, 5)
	counts, mismatches := verifyTable4FourNode(g)
	formulas := []string{
		"1/d_e2 (middle edge)",
		"sum_j 1/d_ej (3 edges)",
		"sum_j 1/d_ej (4 edges)",
		"2/d_e2 + 2/d_e3 + 1/d_e4",
		"2*sum_j 1/d_ej + 2/d_e5 (chord)",
		"4*sum_j 1/d_ej (6 edges)",
	}
	for i := 0; i < 6; i++ {
		status := fmt.Sprintf("true on %d occurrences", counts[i])
		if mismatches[i] > 0 {
			status = fmt.Sprintf("FAILED on %d/%d occurrences", mismatches[i], counts[i])
		}
		if counts[i] == 0 {
			status = "no occurrence in test graph"
		}
		fmt.Fprintf(w, "g4_%-7d %-8s %-36s %s\n", i+1, "SRW(2)", formulas[i], status)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// verifyTable4FourNode enumerates all connected 4-node subgraphs of g and
// compares the generic Algorithm 3 probability with the Table 4 closed form;
// it returns per-type occurrence and mismatch counts.
func verifyTable4FourNode(g *graph.Graph) (counts, mismatches [6]int64) {
	client := access.NewGraphClient(g)
	// Enumerate with a simple recursive expansion over node subsets
	// (adequate at test-graph scale).
	n := g.NumNodes()
	var nodes [4]int32
	var rec func(pos int, start int32)
	rec = func(pos int, start int32) {
		if pos == 4 {
			code := graphlet.CodeOf(4, func(i, j int) bool { return g.HasEdge(nodes[i], nodes[j]) })
			t := graphlet.ClassifyCode(4, code)
			if t < 0 {
				return
			}
			counts[t]++
			got := core.SamplingProbability(client, 4, 2, false, nodes[:])
			want := closedFormP4(g, nodes, t)
			if !approx(got, want) {
				mismatches[t]++
			}
			return
		}
		for v := start; v < int32(n); v++ {
			nodes[pos] = v
			rec(pos+1, v+1)
		}
	}
	rec(0, 0)
	return counts, mismatches
}

// closedFormP4 evaluates the Table 4 closed form for p̃ = 2|R(2)|·p of a
// 4-node occurrence, identifying the labeled edges structurally.
func closedFormP4(g *graph.Graph, nodes [4]int32, typ int) float64 {
	// Internal degrees and edge list.
	var internal [4]int
	type edge struct{ i, j int }
	var edges []edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				edges = append(edges, edge{i, j})
				internal[i]++
				internal[j]++
			}
		}
	}
	invDeg := func(e edge) float64 {
		return 1 / float64(g.Degree(nodes[e.i])+g.Degree(nodes[e.j])-2)
	}
	sumAll := 0.0
	for _, e := range edges {
		sumAll += invDeg(e)
	}
	switch typ {
	case 0: // 4-path: middle edge joins the two internal-degree-2 nodes.
		for _, e := range edges {
			if internal[e.i] == 2 && internal[e.j] == 2 {
				return 2 * invDeg(e)
			}
		}
	case 1: // 3-star
		return 2 * sumAll
	case 2: // 4-cycle
		return 2 * sumAll
	case 3: // tailed triangle: hub = internal degree 3; tail = hub-to-leaf.
		hub, leaf := -1, -1
		for i, d := range internal {
			if d == 3 {
				hub = i
			}
			if d == 1 {
				leaf = i
			}
		}
		p := 0.0
		for _, e := range edges {
			switch {
			case (e.i == hub && e.j == leaf) || (e.j == hub && e.i == leaf):
				p += 2 * invDeg(e) // tail edge e4: coefficient 1 (x2 halved)
			case e.i == hub || e.j == hub:
				p += float64(4 * invDeg(e)) // triangle edges at the hub: coefficient 2
			}
		}
		return p
	case 4: // chordal cycle: chord joins the two internal-degree-3 nodes.
		var chord edge
		for _, e := range edges {
			if internal[e.i] == 3 && internal[e.j] == 3 {
				chord = e
			}
		}
		return float64(4*sumAll) + float64(4*invDeg(chord))
	case 5: // clique
		return 8 * sumAll
	}
	return math.NaN()
}

// Table5 reproduces the paper's Table 5: the dataset inventory with exact
// clique concentrations c³₂, c⁴₆ and (for the small datasets) c⁵₂₁.
func Table5(w io.Writer) {
	header(w, "Table 5: datasets (synthetic stand-ins; see README.md)")
	fmt.Fprintf(w, "%-12s %-14s %8s %9s %10s %10s %10s\n",
		"stand-in", "paper LCC", "|V|", "|E|", "c32(e-2)", "c46(e-3)", "c521(e-5)")
	for _, d := range allDatasets() {
		g := d.Graph()
		c3, err := d.Concentration(3)
		if err != nil {
			panic(err)
		}
		c4, err := d.Concentration(4)
		if err != nil {
			panic(err)
		}
		c5s := "-"
		if d.Exact5 {
			c5, err := d.Concentration(5)
			if err != nil {
				panic(err)
			}
			c5s = fmt.Sprintf("%.3f", c5[20]*1e5)
		}
		fmt.Fprintf(w, "%-12s %-14s %8d %9d %10.2f %10.3f %10s\n",
			d.Name, d.PaperNodes+"/"+d.PaperEdges, g.NumNodes(), g.NumEdges(),
			c3[1]*1e2, c4[5]*1e3, c5s)
	}
	fmt.Fprintln(w, "\npaper values: BrightKite c32=3.98e-2, Epinion 2.29e-2, Slashdot 0.82e-2,")
	fmt.Fprintln(w, "Facebook 5.46e-2, Gowalla 0.80e-2, Wikipedia 0.10e-2, Pokec 1.6e-2,")
	fmt.Fprintln(w, "Flickr 3.87e-2, Twitter 0.86e-2, Sinaweibo 0.03e-2")
}
