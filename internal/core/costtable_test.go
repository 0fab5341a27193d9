package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// TestClientCallsPerWindow is the engine's cost table: for every (k, d, CSS,
// NB) configuration and the multi-size walks, the client calls a run makes
// per window, pinned as exact integers. The counts carry no noise, so a
// change on the step path that moves an operation count shows here on every
// run, where a timing needs many paired benchmark runs to resolve.
//
// The raw rows count Neighbors and HasEdge calls on an access.Counting over
// the in-memory client (BA(2000,4,21), seed 5, one walker) as the difference
// between a 4 000-window and a 2 000-window run of the same seed, so the
// seed draw and the start state cancel and each pin is the cost of 2 000
// windows. valid is the valid-sample count over the same windows, per size.
// The memo rows count the unique rows a 2 000-window run fetches through
// access.Memo on BA(200k,4,21): the paper's cost currency, calls to a
// rate-limited neighbor API. There SRW3CSS fetches exactly the rows SRW3
// does, so CSS's surcharge is raw calls only. (Behind Memo the d = 3 counts
// take the merge path over hub rows, ≈ 100 µs a CSS window, which is what
// keeps these runs at 2 000 windows.)
//
// A change that moves a pin updates it in the same diff and gives the reason
// in CHANGES.md.
func TestClientCallsPerWindow(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		t.Parallel()
		rawCallsPerWindow(t)
	})
	t.Run("memo", func(t *testing.T) {
		t.Parallel()
		memoFetches(t)
	})
}

// rawCallsPerWindow checks the raw rows of TestClientCallsPerWindow.
func rawCallsPerWindow(t *testing.T) {
	const short, long = 2000, 4000
	g := gen.BarabasiAlbert(2000, 4, 21)
	counting := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
	run := func(cfg MultiConfig, windows int) (access.Stats, []int) {
		t.Helper()
		m, err := NewMultiEstimator(counting, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counting.Reset()
		res, err := m.Run(windows)
		if err != nil {
			t.Fatal(err)
		}
		valid := make([]int, len(cfg.Sizes))
		for i, k := range cfg.Sizes {
			valid[i] = res.Results[k].ValidSamples
		}
		return counting.Stats(), valid
	}
	for _, row := range []struct {
		sizes              []int
		d                  int
		css, nb            bool
		neighbors, hasEdge int64
		valid              []int
	}{
		// k = 3
		{[]int{3}, 1, false, false, 2000, 1764, []int{1764}},
		{[]int{3}, 1, false, true, 2284, 2000, []int{2000}},
		{[]int{3}, 1, true, false, 2000, 1764, []int{1764}},
		{[]int{3}, 1, true, true, 2284, 2000, []int{2000}},
		{[]int{3}, 2, false, false, 2089, 2000, []int{2000}},
		{[]int{3}, 2, false, true, 2156, 2000, []int{2000}},
		{[]int{3}, 3, false, false, 12000, 0, []int{2000}},
		{[]int{3}, 3, false, true, 12030, 0, []int{2000}},
		// k = 4
		{[]int{4}, 1, false, false, 2000, 4671, []int{1557}},
		{[]int{4}, 1, false, true, 2283, 5997, []int{1999}},
		{[]int{4}, 1, true, false, 2000, 4671, []int{1557}},
		{[]int{4}, 1, true, true, 2283, 5997, []int{1999}},
		{[]int{4}, 2, false, false, 2089, 5838, []int{1946}},
		{[]int{4}, 2, false, true, 2156, 5997, []int{1999}},
		{[]int{4}, 2, true, false, 2089, 5838, []int{1946}},
		{[]int{4}, 2, true, true, 2156, 5997, []int{1999}},
		{[]int{4}, 3, false, false, 12000, 2000, []int{2000}},
		{[]int{4}, 3, false, true, 12030, 2000, []int{2000}},
		{[]int{4}, 4, false, false, 24000, 0, []int{2000}},
		{[]int{4}, 4, false, true, 24036, 0, []int{2000}},
		// k = 5
		{[]int{5}, 1, false, false, 2000, 8268, []int{1378}},
		{[]int{5}, 1, false, true, 2283, 11970, []int{1995}},
		{[]int{5}, 1, true, false, 2000, 8268, []int{1378}},
		{[]int{5}, 1, true, true, 2283, 11970, []int{1995}},
		{[]int{5}, 2, false, false, 2089, 11202, []int{1867}},
		{[]int{5}, 2, false, true, 2155, 11790, []int{1965}},
		{[]int{5}, 2, true, false, 2089, 11202, []int{1867}},
		{[]int{5}, 2, true, true, 2155, 11790, []int{1965}},
		{[]int{5}, 3, false, false, 12000, 5928, []int{1976}},
		{[]int{5}, 3, false, true, 12030, 5979, []int{1993}},
		{[]int{5}, 3, true, false, 29922, 14889, []int{1976}},
		{[]int{5}, 3, true, true, 29418, 14673, []int{1993}},
		{[]int{5}, 4, false, false, 24000, 2000, []int{2000}},
		{[]int{5}, 4, false, true, 24036, 2000, []int{2000}},
		{[]int{5}, 5, false, false, 40000, 0, []int{2000}},
		{[]int{5}, 5, false, true, 40016, 0, []int{2000}},
		// one walk, three sizes
		{[]int{3, 4, 5}, 2, true, false, 2089, 19040, []int{2000, 1946, 1867}},
		{[]int{3, 4, 5}, 3, true, false, 29922, 16889, []int{2000, 2000, 1976}},
	} {
		cfg := MultiConfig{Sizes: row.sizes, D: row.d, CSS: row.css, NB: row.nb, Seed: 5}
		name := fmt.Sprintf("%s k%v", cfg.MethodName(), row.sizes)
		s, v := run(cfg, short)
		l, vl := run(cfg, long)
		for i := range vl {
			vl[i] -= v[i]
		}
		neighbors, hasEdge := l.NeighborCalls-s.NeighborCalls, l.EdgeProbes-s.EdgeProbes
		if neighbors != row.neighbors || hasEdge != row.hasEdge || !slices.Equal(vl, row.valid) {
			t.Errorf("%s: %d Neighbors, %d HasEdge, valid %v over %d windows; pinned %d, %d, %v",
				name, neighbors, hasEdge, vl, long-short, row.neighbors, row.hasEdge, row.valid)
		}
	}
}

// memoFetches checks the memo rows of TestClientCallsPerWindow.
func memoFetches(t *testing.T) {
	const memoWindows = 2000
	big := gen.BarabasiAlbert(200_000, 4, 21)
	for _, row := range []struct {
		sizes   []int
		d       int
		css, nb bool
		fetches int64
	}{
		{[]int{5}, 3, false, false, 1591},
		{[]int{5}, 3, true, false, 1591},
		{[]int{5}, 3, true, true, 1619},
		{[]int{3, 4, 5}, 3, true, false, 1591},
	} {
		cfg := MultiConfig{Sizes: row.sizes, D: row.d, CSS: row.css, NB: row.nb, Seed: 5}
		memo := access.NewMemo(access.NewGraphClient(big))
		m, err := NewMultiEstimator(memo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(memoWindows); err != nil {
			t.Fatal(err)
		}
		if got := memo.Stats().InnerFetches; got != row.fetches {
			t.Errorf("%s k%v behind Memo: %d unique rows fetched over %d windows; pinned %d",
				cfg.MethodName(), row.sizes, got, memoWindows, row.fetches)
		}
	}
}
