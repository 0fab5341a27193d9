package access

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

func testGraph() *graph.Graph {
	return graph.FromEdgeList(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
}

func TestGraphClient(t *testing.T) {
	c := NewGraphClient(testGraph())
	if c.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d", c.Degree(0))
	}
	if !c.HasEdge(0, 1) || c.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	ns := c.Neighbors(1)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Errorf("Neighbors(1) = %v", ns)
	}
	if c.Neighbors(1)[1] != 2 {
		t.Errorf("Neighbors(1)[1] = %d", c.Neighbors(1)[1])
	}
	rng := rand.New(rand.NewSource(1))
	v := c.RandomNode(rng)
	if v < 0 || v > 3 {
		t.Errorf("RandomNode = %d", v)
	}
}

func TestCountingStats(t *testing.T) {
	c := NewCounting(NewGraphClient(testGraph()), 4)
	c.Degree(0)
	c.Degree(0)
	c.Neighbors(1)
	_ = c.Neighbors(2)[0]
	c.HasEdge(0, 1)
	st := c.Stats()
	if st.DegreeCalls != 2 || st.NeighborCalls != 2 || st.EdgeProbes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UniqueNodes != 3 { // nodes 0, 1, 2 touched
		t.Errorf("unique = %d, want 3", st.UniqueNodes)
	}
	c.Reset()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("after reset: %+v", s)
	}
}

// TestCountingConcurrent hammers the counter from many goroutines; the
// counts must be exact (atomics) and the race detector must stay quiet.
func TestCountingConcurrent(t *testing.T) {
	c := NewCounting(NewGraphClient(testGraph()), 4)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Degree(int32(j % 4))
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.DegreeCalls != goroutines*per {
		t.Errorf("degree calls = %d, want %d", st.DegreeCalls, goroutines*per)
	}
	if st.UniqueNodes != 4 {
		t.Errorf("unique = %d, want 4", st.UniqueNodes)
	}
}

func TestDelayedAddsLatency(t *testing.T) {
	const lat = 2 * time.Millisecond
	c := NewDelayed(NewGraphClient(testGraph()), lat)
	start := time.Now()
	const calls = 10
	for i := 0; i < calls; i++ {
		c.Degree(0)
	}
	if elapsed := time.Since(start); elapsed < calls*lat {
		t.Errorf("elapsed %v, want >= %v", elapsed, calls*lat)
	}
	// Results must pass through unchanged.
	if c.Degree(0) != 2 || !c.HasEdge(0, 1) || c.Neighbors(0)[0] != 1 {
		t.Error("delayed client corrupted results")
	}
	if len(c.Neighbors(0)) != 2 {
		t.Error("delayed Neighbors wrong")
	}
	rng := rand.New(rand.NewSource(1))
	if v := c.RandomNode(rng); v < 0 || v > 3 {
		t.Errorf("RandomNode = %d", v)
	}
}

func TestDelayedZeroLatency(t *testing.T) {
	c := NewDelayed(NewGraphClient(testGraph()), 0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		c.Degree(0)
	}
	if time.Since(start) > time.Second {
		t.Error("zero latency client too slow")
	}
}
