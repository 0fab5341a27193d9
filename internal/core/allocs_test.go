package core

import (
	"context"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// The walk kernel's steady state must be allocation-free: once a walker is
// warm — stateInfo cache map buckets sized, scratch slices at capacity — a
// full window slide (classify + accumulate + transition) performs zero heap
// allocations. This is the allocation half of ISSUE 6's acceptance criteria;
// the throughput half lives in the BA1M benchmarks (bench_ba_test.go).
func TestWalkStepZeroAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 21)
	client := access.NewGraphClient(g)
	for _, cfg := range []Config{
		{K: 4, D: 3},
		{K: 5, D: 3},
		{K: 5, D: 4, NB: true},
		{K: 3, D: 1, CSS: true, NB: true},
		{K: 4, D: 2, CSS: true},
		{K: 5, D: 2, CSS: true},
		{K: 5, D: 3, CSS: true},
	} {
		t.Run(cfg.MethodName(), func(t *testing.T) {
			wk := newWalker(client, cfg, 1)
			wk.reset()
			// Warm: several cache-clear cycles (infoCacheCap) and every
			// scratch-growth path.
			if err := wk.run(context.Background(), 3000); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := wk.accumulate(wk.res); err != nil {
					t.Fatal(err)
				}
				wk.advance()
				wk.res.Steps++
			})
			if allocs != 0 {
				t.Errorf("%v allocs per warm step, want 0", allocs)
			}
		})
	}
}

// The shared-walk engine holds the same fence: a warm multiWalker advances
// every size by one window — CSS re-weighting included — without allocating.
func TestMultiWalkStepZeroAllocs(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 21))
	wk := newMultiWalker(client, MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true}, 1)
	wk.reset()
	ctx := context.Background()
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
}
