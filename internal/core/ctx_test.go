package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/gen"
)

// A cancelled context stops a checkpointed run at the next barrier: the
// partial Result is returned with ctx.Err(), and fewer windows than the
// budget were processed.
func TestRunCheckpointsCtxCancellation(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, 42)
	client := access.NewGraphClient(g)
	est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 9, Walkers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	const budget = 100000
	var snapshots int
	res, err := est.RunCheckpointsCtx(ctx, budget, 1000, func(cp *EnsembleState) {
		snapshots++
		if cp.WindowsDone >= 2000 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Steps == 0 || res.Steps >= budget {
		t.Fatalf("partial Steps = %d, want in (0, %d)", res.Steps, budget)
	}
	if snapshots == 0 {
		t.Fatal("no snapshots before cancellation")
	}
}

// An already-cancelled context stops the run before any window is processed,
// even with no snapshot callback.
func TestRunCheckpointsCtxPreCancelled(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, 42)
	est, err := NewMultiEstimator(access.NewGraphClient(g), MultiConfig{Sizes: []int{3}, D: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := est.RunCheckpointsCtx(ctx, 5000, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Steps != 0 {
		t.Fatalf("pre-cancelled run processed %v steps", res)
	}
}

// Step-granular cancellation: with no snapshot callback the whole budget is
// one barrier-free stage, yet the walkers' in-stage context polls stop the
// run well before the budget is consumed — previously a mid-stage cancel was
// only observed at the next checkpoint barrier, which for a barrier-free run
// meant the very end.
func TestStepGranularCancellation(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, 42)
	// Slow the crawl so the budget takes far longer than the test: without
	// step-granular stops this run would take minutes.
	client := access.NewDelayed(access.NewGraphClient(g), 20*time.Microsecond)
	est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{4}, D: 2, Seed: 11, Walkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	const budget = 10_000_000
	start := time.Now()
	res, err := est.RunCheckpointsCtx(ctx, budget, 0, nil) // no barriers at all
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Steps == 0 || res.Steps >= budget {
		t.Fatalf("partial result %+v, want Steps in (0, %d)", res, budget)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancel took %v to stop a barrier-free stage", elapsed)
	}
}

// A cancellable context that is never cancelled keeps RunCheckpointsCtx
// byte-identical to Run (the context polls introduce no extra barriers and
// touch no walker state).
func TestRunCheckpointsCtxBackgroundEquivalence(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, 42)
	cfg := MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 5, Walkers: 3}

	r1 := runSize(t, access.NewGraphClient(g), cfg, 4000)
	est2, err := NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m2, err := est2.RunCheckpointsCtx(ctx, 4000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := m2.Results[4]
	if r1.Steps != r2.Steps || r1.ValidSamples != r2.ValidSamples {
		t.Fatalf("diverged: %+v vs %+v", r1, r2)
	}
	for i := range r1.Weights {
		if r1.Weights[i] != r2.Weights[i] {
			t.Fatalf("weight %d diverged: %v vs %v", i, r1.Weights[i], r2.Weights[i])
		}
	}
}

// explodingClient panics on neighbor access once its call budget is spent,
// imitating a crawl client losing its transport mid-run.
type explodingClient struct {
	access.Client
	calls atomic.Int64
	limit int64
}

func (c *explodingClient) Neighbors(v int32) []int32 {
	if c.calls.Add(1) > c.limit {
		panic("transport down")
	}
	return c.Client.Neighbors(v)
}

// A client panic inside a walker surfaces as an error for single- and
// multi-walker ensembles alike (no walker-count-dependent crash).
func TestWalkerPanicBecomesError(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.5, 42)
	for _, walkers := range []int{1, 3} {
		client := &explodingClient{Client: access.NewGraphClient(g), limit: 50}
		est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{3}, D: 1, Seed: 2, Walkers: walkers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = est.Run(100000)
		if err == nil || !strings.Contains(err.Error(), "transport down") {
			t.Fatalf("walkers=%d: err = %v, want walker panic converted to error", walkers, err)
		}
	}
}
