// Command clustering shows the restricted-access scenario the paper is
// designed for: estimate the global clustering coefficient of a large
// network through API calls alone, and report how small the crawl footprint
// was. The clustering coefficient follows from the triangle concentration as
// 3c₂/(2c₂+1) (paper §2.1).
package main

import (
	"fmt"

	graphletrw "repro"
	"repro/internal/gen"
)

func main() {
	// A large "OSN" we may only crawl via its API.
	g := gen.BarabasiAlbert(200000, 8, 7)
	lcc, _ := graphletrw.LargestComponent(g)

	// Wrap the API with accounting so we can report the crawl footprint.
	counting := graphletrw.NewCountingClient(graphletrw.NewClient(lcc), lcc.NumNodes())

	const steps = 20000
	res, err := graphletrw.Estimate(counting, graphletrw.Config{
		Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 99,
	}, steps)
	if err != nil {
		panic(err)
	}
	conc := res.Results[3].Concentration()
	c2 := conc[1]
	ccEst := 3 * c2 / (2*c2 + 1)
	ccExact := graphletrw.ClusteringCoefficient(lcc)

	st := counting.Stats()
	fmt.Printf("network: %d nodes, %d edges\n", lcc.NumNodes(), lcc.NumEdges())
	fmt.Printf("walk steps:                %d\n", steps)
	fmt.Printf("triangle concentration:    %.5f (estimated)\n", c2)
	fmt.Printf("clustering coefficient:    %.5f (estimated)  %.5f (exact)\n", ccEst, ccExact)
	fmt.Printf("crawl footprint:           %d unique nodes (%.3f%% of the graph)\n",
		st.UniqueNodes, 100*float64(st.UniqueNodes)/float64(lcc.NumNodes()))
	fmt.Printf("API calls:                 %d neighbor fetches, %d degree lookups, %d edge probes\n",
		st.NeighborCalls, st.DegreeCalls, st.EdgeProbes)
}
