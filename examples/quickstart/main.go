// Command quickstart demonstrates the library's core loop in one page:
// generate a graph, estimate 3- and 4-node graphlet concentrations with a
// 20K-step random walk, and compare against the exact values.
package main

import (
	"fmt"

	graphletrw "repro"
	"repro/internal/gen"
)

func main() {
	// A Facebook-like synthetic network: power-law degrees, high clustering.
	g := gen.HolmeKim(5000, 4, 0.7, 42)
	lcc, _ := graphletrw.LargestComponent(g)
	fmt.Printf("graph: %d nodes, %d edges\n\n", lcc.NumNodes(), lcc.NumEdges())

	client := graphletrw.NewClient(lcc)

	// 3-node graphlets: the paper's best method is SRW1CSSNB — a walk on G
	// itself with corresponding-state sampling and no backtracking.
	res, err := graphletrw.Estimate(client, graphletrw.Config{
		Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 1,
	}, 20000)
	if err != nil {
		panic(err)
	}
	exact3 := graphletrw.ExactConcentration(lcc, 3)
	fmt.Println("3-node graphlet concentration (20K walk steps, SRW1CSSNB):")
	printComparison(3, res.Results[3].Concentration(), exact3)

	// 4-node graphlets: the paper recommends SRW2CSS (walk on the line
	// graph G(2) with CSS). Walkers: 8 splits the budget across eight
	// concurrent walks whose merged estimate is exact and reproducible.
	multi, err := graphletrw.Estimate(client, graphletrw.Config{
		Sizes: []int{4}, D: 2, CSS: true, Seed: 1, Walkers: 8,
	}, 20000)
	if err != nil {
		panic(err)
	}
	res4 := multi.Results[4]
	exact4 := graphletrw.ExactConcentration(lcc, 4)
	fmt.Println("\n4-node graphlet concentration (20K walk steps, SRW2CSS):")
	printComparison(4, res4.Concentration(), exact4)

	fmt.Printf("\nvalid samples: %d of %d windows\n", res4.ValidSamples, res4.Steps)
}

func printComparison(k int, est, exact []float64) {
	fmt.Printf("  %-16s %12s %12s\n", "graphlet", "estimated", "exact")
	for i, g := range graphletrw.Catalog(k) {
		fmt.Printf("  g%d_%-2d %-10s %12.5f %12.5f\n", k, g.ID, g.Name, est[i], exact[i])
	}
}
