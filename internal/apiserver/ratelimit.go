package apiserver

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// TokenBucket is a concurrency-safe token bucket: it holds up to `burst`
// tokens and refills at `qps` tokens per second. Wait blocks until a token
// is available, so a bucket-fronted server delays requests instead of
// rejecting them — the behavior of a politeness-limited OSN API, which is
// what crawl experiments want to model (the crawl client treats non-200
// responses as fatal, and a real crawler throttles rather than drops).
type TokenBucket struct {
	mu     sync.Mutex
	qps    float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket creates a bucket refilling at qps tokens/second with the
// given burst capacity (values < 1 are clamped to 1). The bucket starts
// full. qps must be positive.
func NewTokenBucket(qps float64, burst int) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		qps:    qps,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// WaitContext blocks until one token is available and consumes it. It
// reports whether a token was obtained, returning false as soon as ctx is
// done. An abandoned wait
// refunds its reservation, so disconnected clients do not eat into the
// throughput of live ones.
func (tb *TokenBucket) WaitContext(ctx context.Context) bool {
	d := tb.reserve()
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		tb.refund()
		return false
	}
}

// refund returns one reserved token to the bucket (capped at burst).
func (tb *TokenBucket) refund() {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.tokens++
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// reserve consumes one token and returns how long the caller must sleep
// before acting on it. The token balance may go negative: each waiter under
// the lock reserves the next future token, so concurrent waiters are serviced
// at the steady qps rate rather than stampeding on every refill.
func (tb *TokenBucket) reserve() time.Duration {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.qps
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	tb.tokens--
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.qps * float64(time.Second))
}

// RateLimit wraps a handler with a shared token bucket: each request waits
// for a token before being served, capping sustained throughput at qps with
// the given burst allowance. qps <= 0 disables limiting and returns next
// unchanged. The bucket is shared across all clients, modeling a per-API
// (not per-client) politeness limit. rejected is invoked (when non-nil) each
// time a throttled client gives up before obtaining a token — graphletd
// counts these into its metrics registry.
func RateLimit(next http.Handler, qps float64, burst int, rejected func()) http.Handler {
	if qps <= 0 {
		return next
	}
	tb := NewTokenBucket(qps, burst)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A client that disconnects while throttled stops waiting and gets
		// its reservation back instead of holding a goroutine asleep.
		if !tb.WaitContext(r.Context()) {
			if rejected != nil {
				rejected()
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}
