package core

import (
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/walk"
)

// TestSRW3CrawlCost pins what a d=3 walk pays a crawl client, in the paper's
// own cost unit. A transition derives the drawn state's record from the
// current one, so past the start state a walk issues no HasEdge at all; and a
// k=4 window costs six Neighbors fetches (the drawn group's two rows, plus
// two rows for each of the two groups the new state has to count) and one
// HasEdge (the window's one pair no state covers).
func TestSRW3CrawlCost(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 21)
	counting := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	for _, nb := range []bool{false, true} {
		sp := walk.NewSpace(counting, 3)
		w := walk.New(sp, nb, rand.New(rand.NewSource(5)))
		sp.StateDegree(w.Current()) // the start state's record: its three probes
		counting.Reset()
		w.Burn(5000)
		if st := counting.Stats(); st.EdgeProbes != 0 {
			t.Errorf("nb=%v: %d HasEdge calls over 5000 steps past the start state, want 0", nb, st.EdgeProbes)
		}
	}

	// Calls for 2N windows minus calls for N on a fresh estimator of the same
	// seed: the start state's record and the seed draw cancel.
	calls := func(windows int) access.Stats {
		est, err := NewMultiEstimator(counting, Config{K: 4, D: 3, Seed: 5}.Multi())
		if err != nil {
			t.Fatal(err)
		}
		counting.Reset()
		if _, err := est.Run(windows); err != nil {
			t.Fatal(err)
		}
		return counting.Stats()
	}
	const n = 5000
	short, long := calls(n), calls(2*n)
	neighbors := float64(long.NeighborCalls-short.NeighborCalls) / n
	probes := float64(long.EdgeProbes-short.EdgeProbes) / n
	if neighbors > 6 || probes > 1 {
		t.Errorf("k4 d3: %.4f Neighbors and %.4f HasEdge calls per window, want <= 6 and <= 1", neighbors, probes)
	}
}
