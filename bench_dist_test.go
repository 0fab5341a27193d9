package graphletrw

// Distributed-execution benchmark on the 1M-edge Barabási–Albert fixture
// (ba1mGraph, shared with bench_ba_test.go) under simulated crawl latency:
// the regime the dist package exists for. Each worker node models one crawl
// connection — a serialized client that charges a fixed latency per API
// call, the way a polite crawler pays one round trip at a time — so a
// single node's wall clock is latency-bound no matter how many walkers it
// runs. Fanning the same job over three nodes buys three crawl connections;
// the PR-9 acceptance bar (CHANGES.md) is >= 2x wall-clock at nodes=3.
//
// The full dispatch stack is exercised: binary Assignment over HTTP to
// httptest worker nodes, Frame streams back, coordinator merge. calls/op
// reports the fleet-wide API-call count per job — identical across node
// counts, because partitioning changes where a walker runs, never what it
// fetches.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dist"
)

// crawlConn serializes all access through one simulated crawl connection
// sustaining 1/latency calls per second — the per-node crawl capacity a
// rate-limited API grants. The budget is enforced in coarse ticks (sleep
// once, admit tick/latency calls) because µs-scale sleeps round up to the
// scheduler's timer granularity (~1ms on this class of kernel), which would
// silently inflate the modeled RTT; paced this way the aggregate rate is
// faithful and sleeping connections overlap across nodes even on one CPU.
type crawlConn struct {
	inner   access.Client
	latency time.Duration
	mu      sync.Mutex
	tokens  int
	calls   atomic.Int64
}

const crawlTick = time.Millisecond

func (c *crawlConn) call() {
	c.calls.Add(1)
	c.mu.Lock()
	if c.tokens == 0 {
		time.Sleep(crawlTick)
		c.tokens = int(crawlTick / c.latency)
	}
	c.tokens--
	c.mu.Unlock()
}

func (c *crawlConn) Degree(v int32) int            { c.call(); return c.inner.Degree(v) }
func (c *crawlConn) Neighbors(v int32) []int32     { c.call(); return c.inner.Neighbors(v) }
func (c *crawlConn) Neighbor(v int32, i int) int32 { c.call(); return c.inner.Neighbor(v, i) }
func (c *crawlConn) HasEdge(u, v int32) bool       { c.call(); return c.inner.HasEdge(u, v) }
func (c *crawlConn) RandomNode(r *rand.Rand) int32 { c.call(); return c.inner.RandomNode(r) }

func benchmarkDistributedCrawl(b *testing.B, nodes int) {
	g := ba1mGraph()
	const (
		distSteps   = 6000
		crawlRTT    = 25 * time.Microsecond
		distWalkers = 6
	)
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: distWalkers, Seed: 7}
	meta := dist.GraphMeta{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}

	conns := make([]*crawlConn, nodes)
	peers := make([]string, nodes)
	for i := range peers {
		conn := &crawlConn{inner: access.NewGraphClient(g), latency: crawlRTT}
		conns[i] = conn
		srv := httptest.NewServer(&dist.Handler{
			Lookup: func(name string) (access.Client, dist.GraphMeta, bool) {
				if name != "ba1m" {
					return nil, dist.GraphMeta{}, false
				}
				return conn, meta, true
			},
		})
		b.Cleanup(srv.Close)
		peers[i] = srv.URL
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := dist.Assignment{Graph: "ba1m", Meta: meta, Multi: &cfg, Budget: distSteps}
		asns := dist.PartitionAssignments(base, nodes)
		if _, err := dist.Run(context.Background(), dist.Options{Peers: peers}, asns, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var calls int64
	for _, c := range conns {
		calls += c.calls.Load()
	}
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
	b.ReportMetric(float64(distSteps)*float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkDistributedCrawl(b *testing.B) {
	for _, nodes := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchmarkDistributedCrawl(b, nodes)
		})
	}
}
