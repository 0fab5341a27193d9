// Command graphlet-exact enumerates exact graphlet counts of an edge-list
// graph with the parallel ESU algorithm (ground-truth tool).
//
// Usage:
//
//	graphlet-exact -graph graph.txt [-k 4]
//
// The input is a text edge list or a .gcsr binary CSR file (see
// cmd/graphlet-pack), detected automatically.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	graphletrw "repro"
)

func main() {
	path := flag.String("graph", "", "graph file, edge list or .gcsr (required)")
	k := flag.Int("k", 4, "graphlet size (3..5)")
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	lcc, err := graphletrw.OpenLCC(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphlet-exact:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", lcc.NumNodes(), lcc.NumEdges())

	start := time.Now()
	counts := graphletrw.ExactCounts(lcc, *k)
	elapsed := time.Since(start)

	var total int64
	for _, c := range counts {
		total += c
	}
	fmt.Printf("enumerated %d connected %d-node subgraphs in %s\n\n", total, *k, elapsed.Round(time.Millisecond))
	fmt.Printf("%-22s %16s %14s\n", "graphlet", "count", "concentration")
	for i, gl := range graphletrw.Catalog(*k) {
		conc := 0.0
		if total > 0 {
			conc = float64(counts[i]) / float64(total)
		}
		fmt.Printf("g%d_%-3d %-15s %16d %14.8f\n", *k, gl.ID, gl.Name, counts[i], conc)
	}
	if *k == 3 {
		fmt.Printf("\nglobal clustering coefficient: %.6f\n", graphletrw.ClusteringCoefficient(lcc))
	}
}
