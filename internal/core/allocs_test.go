package core

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// The walk kernel's steady state must be allocation-free: once a walker is
// warm — stateInfo cache map buckets sized, scratch slices at capacity — a
// full window slide (classify + accumulate + transition, CSS re-weighting
// and star recovery included, for every size riding the walk) performs zero
// heap allocations. The d=3 rows fence the derived transition on both of its
// count branches: the closed form on the in-memory client and the merge on a
// crawl client (access.Counting). The throughput half lives in the BA1M
// benchmarks (bench_ba_test.go).
func TestWalkStepZeroAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 21)
	client := access.NewGraphClient(g)
	for _, row := range []struct {
		name   string // one-size rows are named by method; go test numbers repeats
		cfg    MultiConfig
		client access.Client // nil: the in-memory client
	}{
		{"SRW3", Config{K: 4, D: 3}.Multi(), nil},
		{"SRW3", Config{K: 5, D: 3}.Multi(), nil},
		{"SRW4NB", Config{K: 5, D: 4, NB: true}.Multi(), nil},
		{"SRW1CSSNB", Config{K: 3, D: 1, CSS: true, NB: true}.Multi(), nil},
		{"SRW2CSS", Config{K: 4, D: 2, CSS: true}.Multi(), nil},
		{"SRW2CSS", Config{K: 5, D: 2, CSS: true}.Multi(), nil},
		{"SRW3CSS", Config{K: 5, D: 3, CSS: true}.Multi(), nil},
		{"SRW1_stars", Config{K: 4, D: 1, RecoverStars: true}.Multi(), nil},
		{"SRW2CSS_burnin", Config{K: 4, D: 2, CSS: true, BurnIn: 100}.Multi(), nil},
		{"SRW2CSS_sizes345", MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true}, nil},
		{"SRW3NB", Config{K: 5, D: 3, NB: true}.Multi(), nil},
		{"SRW3_crawl", Config{K: 4, D: 3}.Multi(), access.NewCounting(client, g.NumNodes())},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := row.client
			if c == nil {
				c = client
			}
			wk := newWalker(c, row.cfg, 1)
			wk.reset()
			ctx := context.Background()
			// Warm: several cache-clear cycles (infoCacheCap) and every
			// scratch-growth path.
			if err := wk.run(ctx, 3000); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := wk.run(ctx, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocs per warm step, want 0", allocs)
			}
		})
	}
}

// A short job's allocations, construction included: each walker is one
// allocation holding everything it writes per step (its arena), so only the
// shared pieces and the merge allocate beside it.
func TestShortJobAllocs(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 21))
	for _, row := range []struct {
		name string
		cfg  MultiConfig
		max  float64
	}{
		{"SRW2CSS_k4_W1", Config{K: 4, D: 2, CSS: true, Walkers: 1}.Multi(), 15},
		{"SRW2CSS_k345_W2", MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 2}, 34},
	} {
		t.Run(row.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(20, func() {
				m, err := NewMultiEstimator(client, row.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(500); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > row.max {
				t.Errorf("%v allocs per 500-window job, want <= %v", allocs, row.max)
			}
		})
	}
}
