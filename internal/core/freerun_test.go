package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/gen"
)

// countingClient counts every client call. When the count reaches `at` it
// runs onReach once, on the calling walker's goroutine; with panicAt set, the
// call that brings the count there panics instead of answering.
type countingClient struct {
	access.Client
	calls   atomic.Int64
	at      int64
	onReach func()
	panicAt int64
}

func (c *countingClient) count() {
	n := c.calls.Add(1)
	if n == c.at && c.onReach != nil {
		c.onReach()
	}
	if n == c.panicAt {
		panic("transport down")
	}
}

func (c *countingClient) Degree(v int32) int {
	c.count()
	return c.Client.Degree(v)
}

func (c *countingClient) Neighbors(v int32) []int32 {
	c.count()
	return c.Client.Neighbors(v)
}

func (c *countingClient) HasEdge(u, v int32) bool {
	c.count()
	return c.Client.HasEdge(u, v)
}

// freeRunCfg is the ensemble the free-run tests drive: enough walkers that
// a lagging or failing one is usually not walker 0.
var freeRunCfg = MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 5, Seed: 8}

func freeRunGraph() access.Client { return access.NewGraphClient(gen.HolmeKim(400, 3, 0.5, 11)) }

// callsAt is how many client calls a fresh ensemble makes to stand at
// target windows: each walker's calls are a pure function of its trajectory,
// so this is also the count of a checkpointed run whose walkers all stand at
// that target, wherever they stopped on the way.
func callsAt(t *testing.T, target int) int64 {
	t.Helper()
	c := &countingClient{Client: freeRunGraph()}
	est, err := NewMultiEstimator(c, freeRunCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Run(target); err != nil {
		t.Fatal(err)
	}
	return c.calls.Load()
}

// noWalkerLeft checks that a returned run left no walker behind: it reads
// every walker's state, which races (under -race) with any walker still
// walking, then waits until the goroutine count is back to before. A run
// waits for its walkers, so only their last instructions can still be
// running here; the deadline only turns a leak into a failure.
func noWalkerLeft(t *testing.T, est *MultiEstimator, before int) {
	t.Helper()
	est.Snapshot()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// A callback blocked at target j lets the walkers reach exactly target
// j+checkpointLead and no further; a parent cancel while they wait there
// returns ctx.Err() with the merged result at that target.
func TestCheckpointLeadBound(t *testing.T) {
	const n, every, j = 3000, 100, 3
	limit := callsAt(t, (j+checkpointLead)*every)
	c := &countingClient{Client: freeRunGraph(), at: limit}
	reached := make(chan struct{})
	c.onReach = func() { close(reached) }
	est, err := NewMultiEstimator(c, freeRunCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	before := runtime.NumGoroutine()
	res, err := est.RunCheckpointsCtx(ctx, n, every, func(st *EnsembleState) {
		if st.WindowsDone != j*every {
			return
		}
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Errorf("walkers made %d of the %d calls to target %d while the callback blocked at %d",
				c.calls.Load(), limit, (j+checkpointLead)*every, j*every)
		}
		cancel()
	})
	noWalkerLeft(t, est, before)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.calls.Load(); got != limit {
		t.Errorf("%d client calls, want %d: the walkers ran past target %d", got, limit, (j+checkpointLead)*every)
	}
	if res == nil || res.Steps != (j+checkpointLead)*every {
		t.Errorf("partial result %+v, want %d windows", res, (j+checkpointLead)*every)
	}
}

// A parent cancel while the callback blocks, and while the walkers are
// walking with the caller waiting on their lanes, returns ctx.Err() with the
// merged partial result, and no walker outlives the run.
func TestFreeRunCancel(t *testing.T) {
	const n, every = 20000, 100
	mid := callsAt(t, 1000)
	for _, where := range []string{"callback", "walk"} {
		t.Run(where, func(t *testing.T) {
			c := &countingClient{Client: freeRunGraph()}
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			if where == "walk" {
				c.at, c.onReach = mid, cancel
			}
			est, err := NewMultiEstimator(c, freeRunCfg)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			delivered := 0
			res, err := est.RunCheckpointsCtx(ctx, n, every, func(st *EnsembleState) {
				delivered++
				if where == "callback" && st.WindowsDone == 500 {
					go cancel()
					<-ctx.Done()
				}
			})
			noWalkerLeft(t, est, before)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil || res.Steps < delivered*every || res.Steps >= n {
				t.Fatalf("partial result %+v after %d checkpoints, want windows in [%d, %d)", res, delivered, delivered*every, n)
			}
		})
	}
}

// A walker's panic is the run's error — never the stop it causes in its
// siblings — with and without a callback, and no walker outlives the run.
func TestFreeRunPanicIsTheWalkersError(t *testing.T) {
	panicAt := callsAt(t, 2000)
	for _, every := range []int{0, 50} {
		c := &countingClient{Client: freeRunGraph(), panicAt: panicAt}
		est, err := NewMultiEstimator(c, freeRunCfg)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		var fn func(*EnsembleState)
		if every > 0 {
			fn = func(*EnsembleState) {}
		}
		res, err := est.RunCheckpointsCtx(t.Context(), 20000, every, fn)
		noWalkerLeft(t, est, before)
		if err == nil || !strings.Contains(err.Error(), "transport down") || errors.Is(err, errStopped) {
			t.Fatalf("every=%d: err = %v, want the walker's panic", every, err)
		}
		if res != nil {
			t.Errorf("every=%d: failed run returned a result", every)
		}
	}
}

// A panicking callback fails the run like a walker panic does, and stops
// the walkers before the run returns.
func TestFreeRunCallbackPanic(t *testing.T) {
	est, err := NewMultiEstimator(freeRunGraph(), freeRunCfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res, err := est.RunCheckpointsCtx(t.Context(), 20000, 100, func(st *EnsembleState) {
		if st.WindowsDone == 300 {
			panic("callback failed")
		}
	})
	noWalkerLeft(t, est, before)
	if res != nil || err == nil || !strings.Contains(err.Error(), "callback failed") {
		t.Fatalf("res, err = %v, %v; want the callback's panic", res, err)
	}
}
