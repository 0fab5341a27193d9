package apiserver

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// The bucket enforces the steady rate: after the burst is spent, n waits at
// qps tokens/sec take at least (n-burst)/qps seconds.
func TestTokenBucketRate(t *testing.T) {
	const qps, burst, n = 500.0, 1, 26
	tb := NewTokenBucket(qps, burst)
	start := time.Now()
	for i := 0; i < n; i++ {
		tb.WaitContext(context.Background())
	}
	elapsed := time.Since(start)
	// n waits consume burst free tokens and n-burst refills. Allow 20% slack
	// for timer coarseness in the lower bound.
	minWant := time.Duration(float64(n-burst) / qps * float64(time.Second) * 8 / 10)
	if elapsed < minWant {
		t.Errorf("%d waits at %v qps took %v, want >= %v", n, qps, elapsed, minWant)
	}
}

// Concurrent waiters each get a token; total elapsed time still respects the
// rate (run under -race this also exercises bucket thread safety).
func TestTokenBucketConcurrent(t *testing.T) {
	const qps, burst, n = 1000.0, 1, 30
	tb := NewTokenBucket(qps, burst)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb.WaitContext(context.Background())
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	minWant := time.Duration(float64(n-burst) / qps * float64(time.Second) * 8 / 10)
	if elapsed < minWant {
		t.Errorf("%d concurrent waits took %v, want >= %v", n, elapsed, minWant)
	}
}

// The middleware throttles a burst of HTTP requests without rejecting any.
func TestRateLimitMiddleware(t *testing.T) {
	g := gen.Complete(5)
	h := RateLimit(NewHandler(g, 1), 400, 1, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	const n = 12
	start := time.Now()
	for i := 0; i < n; i++ {
		resp, err := http.Get(srv.URL + "/v1/nodes/0/neighbors")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (limiter must delay, not reject)", i, resp.StatusCode)
		}
	}
	elapsed := time.Since(start)
	minWant := time.Duration(float64(n-1) / 400 * float64(time.Second) * 8 / 10)
	if elapsed < minWant {
		t.Errorf("%d limited requests took %v, want >= %v", n, elapsed, minWant)
	}
}

// qps <= 0 must be a passthrough (no bucket allocated, no delay).
func TestRateLimitDisabled(t *testing.T) {
	base := NewHandler(gen.Complete(3), 1)
	if h := RateLimit(base, 0, 1, nil); h != http.Handler(base) {
		t.Error("RateLimit(h, 0, _) should return h unchanged")
	}
}

// A cancelled context aborts a throttled wait immediately and refunds the
// reservation to the bucket.
func TestTokenBucketWaitContext(t *testing.T) {
	tb := NewTokenBucket(0.5, 1)         // one token, then 2s per refill
	tb.WaitContext(context.Background()) // drain the burst
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if tb.WaitContext(ctx) {
		t.Fatal("WaitContext succeeded on a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancelled wait blocked for %v", elapsed)
	}
	// The abandoned reservation was refunded: a fresh wait needs at most one
	// refill interval, not two.
	done := make(chan struct{})
	go func() { tb.WaitContext(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("refunded token not honored within one refill interval")
	}
}
