// Command convergence traces how fast different methods of the framework
// approach the true 4-clique concentration as the walk-step budget grows —
// a miniature of the paper's Figure 6: SRW2CSS converges fastest, PSRW
// (= SRW3 for 4-node graphlets) slowest.
package main

import (
	"context"
	"fmt"
	"math"

	graphletrw "repro"
	"repro/internal/gen"
	"repro/internal/stats"
)

func main() {
	g := gen.HolmeKim(4000, 5, 0.7, 11)
	lcc, _ := graphletrw.LargestComponent(g)
	client := graphletrw.NewClient(lcc)
	truth := graphletrw.ExactConcentration(lcc, 4)
	const cliqueIdx = 5 // g4_6

	const (
		steps      = 20000
		checkpoint = 2000
		trials     = 60
	)
	methods := []graphletrw.Config{
		{Sizes: []int{4}, D: 2},
		{Sizes: []int{4}, D: 2, CSS: true},
		{Sizes: []int{4}, D: 3}, // PSRW
	}

	fmt.Printf("4-clique concentration convergence on %d-node graph (truth %.5f, %d trials)\n\n",
		lcc.NumNodes(), truth[cliqueIdx], trials)
	fmt.Printf("%-10s", "steps")
	for _, m := range methods {
		fmt.Printf("%12s", m.MethodName())
	}
	fmt.Println()

	series := make([][][]float64, len(methods)) // [method][trial][checkpoint]
	for mi, m := range methods {
		series[mi] = stats.RunTrials(trials, func(trial int) []float64 {
			cfg := m
			cfg.Seed = int64(1000*trial + mi)
			est, err := graphletrw.NewEstimator(client, cfg)
			if err != nil {
				panic(err)
			}
			var points []float64
			_, err = est.RunCheckpointsCtx(context.Background(), steps, checkpoint, func(step int, conc map[int][]float64) {
				points = append(points, conc[4][cliqueIdx])
			})
			if err != nil {
				panic(err)
			}
			return points
		})
	}
	nCheck := steps / checkpoint
	for s := 0; s < nCheck; s++ {
		fmt.Printf("%-10d", (s+1)*checkpoint)
		for mi := range methods {
			nrmse := stats.ConvergenceSeries(series[mi], truth[cliqueIdx])[s]
			if math.IsNaN(nrmse) {
				fmt.Printf("%12s", "-")
			} else {
				fmt.Printf("%12.4f", nrmse)
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(values are NRMSE; lower is better — CSS wins, PSRW trails)")
}
