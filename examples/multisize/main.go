// Command multisize demonstrates the joint estimator extension: one random
// walk on G(2) yields 3-, 4- and 5-node graphlet concentrations
// simultaneously — one crawl budget, three fingerprints. (The paper's MSS
// reference point estimates neighbouring sizes jointly; this generalizes it
// to the whole framework.)
package main

import (
	"fmt"

	graphletrw "repro"
	"repro/internal/gen"
)

func main() {
	g := gen.HolmeKim(3000, 4, 0.7, 123)
	lcc, _ := graphletrw.LargestComponent(g)
	counting := graphletrw.NewCountingClient(graphletrw.NewClient(lcc), lcc.NumNodes())

	res, err := graphletrw.Estimate(counting, graphletrw.Config{
		Sizes: []int{3, 4, 5},
		D:     2,
		CSS:   true,
		Seed:  7,
	}, 20000)
	if err != nil {
		panic(err)
	}

	for _, k := range []int{3, 4, 5} {
		exact := graphletrw.ExactConcentration(lcc, k)
		conc := res.Results[k].Concentration()
		fmt.Printf("\n%d-node graphlets (%d valid samples):\n", k, res.Results[k].ValidSamples)
		for i, gl := range graphletrw.Catalog(k) {
			if exact[i] < 1e-4 && conc[i] < 1e-4 {
				continue // skip negligible types for readability
			}
			fmt.Printf("  g%d_%-3d %-16s est %.5f   exact %.5f\n", k, gl.ID, gl.Name, conc[i], exact[i])
		}
	}
	st := counting.Stats()
	fmt.Printf("\none walk, %d unique nodes crawled (%.2f%% of graph), %d neighbor fetches\n",
		st.UniqueNodes, 100*float64(st.UniqueNodes)/float64(lcc.NumNodes()), st.NeighborCalls)
}
