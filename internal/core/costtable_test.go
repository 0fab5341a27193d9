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
// The raw rows count Neighbors, HasEdge and Degree calls on an
// access.Counting over the in-memory client (BA(2000,4,21), seed 5, one
// walker) as the difference between a 4 000-window and a 2 000-window run of
// the same seed, so the seed draw and the start state cancel and each pin is
// the cost of 2 000 windows. valid is the valid-sample count over the same windows, per size.
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
		sizes                      []int
		d                          int
		css, nb                    bool
		neighbors, hasEdge, degree int64
		valid                      []int
	}{
		// k = 3
		{[]int{3}, 1, false, false, 2000, 1763, 4000, []int{1764}},
		{[]int{3}, 1, false, true, 2284, 1999, 4000, []int{2000}},
		{[]int{3}, 1, true, false, 2000, 1763, 4000, []int{1764}},
		{[]int{3}, 1, true, true, 2284, 1999, 4000, []int{2000}},
		{[]int{3}, 2, false, false, 2089, 1946, 10089, []int{2000}},
		{[]int{3}, 2, false, true, 2156, 1999, 14252, []int{2000}},
		{[]int{3}, 3, false, false, 12000, 0, 0, []int{2000}},
		{[]int{3}, 3, false, true, 12030, 0, 0, []int{2000}},
		// k = 4
		{[]int{4}, 1, false, false, 2000, 3267, 4000, []int{1557}},
		{[]int{4}, 1, false, true, 2283, 3992, 4000, []int{1999}},
		{[]int{4}, 1, true, false, 2000, 3267, 4000, []int{1557}},
		{[]int{4}, 1, true, true, 2283, 3992, 4000, []int{1999}},
		{[]int{4}, 2, false, false, 2089, 3840, 10089, []int{1946}},
		{[]int{4}, 2, false, true, 2156, 3932, 14252, []int{1999}},
		{[]int{4}, 2, true, false, 2089, 3840, 11995, []int{1946}},
		{[]int{4}, 2, true, true, 2156, 3932, 16218, []int{1999}},
		{[]int{4}, 3, false, false, 12000, 1976, 0, []int{2000}},
		{[]int{4}, 3, false, true, 12030, 1993, 0, []int{2000}},
		{[]int{4}, 4, false, false, 24000, 0, 0, []int{2000}},
		{[]int{4}, 4, false, true, 24036, 0, 0, []int{2000}},
		// k = 5
		{[]int{5}, 1, false, false, 2000, 4587, 4000, []int{1378}},
		{[]int{5}, 1, false, true, 2283, 5987, 4000, []int{1995}},
		{[]int{5}, 1, true, false, 2000, 4587, 4000, []int{1378}},
		{[]int{5}, 1, true, true, 2283, 5987, 4000, []int{1995}},
		{[]int{5}, 2, false, false, 2089, 5653, 10089, []int{1867}},
		{[]int{5}, 2, false, true, 2155, 5807, 14251, []int{1965}},
		{[]int{5}, 2, true, false, 2089, 5653, 11975, []int{1867}},
		{[]int{5}, 2, true, true, 2155, 5807, 16186, []int{1965}},
		{[]int{5}, 3, false, false, 12000, 3934, 0, []int{1976}},
		{[]int{5}, 3, false, true, 12030, 3930, 0, []int{1993}},
		{[]int{5}, 3, true, false, 29922, 12895, 0, []int{1976}},
		{[]int{5}, 3, true, true, 29418, 12624, 0, []int{1993}},
		{[]int{5}, 4, false, false, 24000, 1990, 0, []int{2000}},
		{[]int{5}, 4, false, true, 24036, 1990, 0, []int{2000}},
		{[]int{5}, 5, false, false, 40000, 0, 0, []int{2000}},
		{[]int{5}, 5, false, true, 40016, 0, 0, []int{2000}},
		// one walk, three sizes
		{[]int{3, 4, 5}, 2, true, false, 2089, 5654, 11977, []int{2000, 1946, 1867}},
		{[]int{3, 4, 5}, 3, true, false, 29922, 12895, 0, []int{2000, 2000, 1976}},
	} {
		cfg := MultiConfig{Sizes: row.sizes, D: row.d, CSS: row.css, NB: row.nb, Seed: 5}
		name := fmt.Sprintf("%s k%v", cfg.MethodName(), row.sizes)
		s, v := run(cfg, short)
		l, vl := run(cfg, long)
		for i := range vl {
			vl[i] -= v[i]
		}
		neighbors, hasEdge := l.NeighborCalls-s.NeighborCalls, l.EdgeProbes-s.EdgeProbes
		degree := l.DegreeCalls - s.DegreeCalls
		if neighbors != row.neighbors || hasEdge != row.hasEdge || degree != row.degree || !slices.Equal(vl, row.valid) {
			t.Errorf("%s: %d Neighbors, %d HasEdge, %d Degree, valid %v over %d windows; pinned %d, %d, %d, %v",
				name, neighbors, hasEdge, degree, vl, long-short, row.neighbors, row.hasEdge, row.degree, row.valid)
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
		inner := access.NewCounting(access.NewGraphClient(big), big.NumNodes())
		m, err := NewMultiEstimator(access.NewMemo(inner), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(memoWindows); err != nil {
			t.Fatal(err)
		}
		if got := inner.Stats().NeighborCalls; got != row.fetches {
			t.Errorf("%s k%v behind Memo: %d unique rows fetched over %d windows; pinned %d",
				cfg.MethodName(), row.sizes, got, memoWindows, row.fetches)
		}
	}
}
