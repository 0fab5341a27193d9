// Package access models the paper's restricted-access setting: the graph
// topology is not available in bulk and can only be explored through the kind
// of calls an OSN API exposes — fetch a node's neighbor list (and hence its
// degree) and test adjacency. The crawl interface, Client, is four calls:
// Degree, Neighbors, HasEdge and RandomNode; a caller that wants one
// neighbor indexes the row, so a row is read one way everywhere. All
// random-walk code in this repository goes through Client, so estimators
// genuinely use only crawlable information; the accounting wrapper measures
// API cost, which Figure 8's Wedge-MHRW comparison depends on.
package access

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/graph"
)

// Client is the crawl interface offered by a restricted-access graph: a
// RowSource (whole neighbor rows and walk seeds) plus degrees and adjacency
// tests. A caller that wants the i-th neighbor indexes Neighbors(v), so
// every wrapper charges, delays or memoizes that one row call.
// Implementations must be safe for concurrent use.
type Client interface {
	RowSource
	// Degree returns the degree of v (the length of its neighbor list).
	Degree(v int32) int
	// HasEdge reports whether u and v are adjacent.
	HasEdge(u, v int32) bool
}

// CommonCounter is an optional Client capability: counts over neighbor rows
// answered from the graph layer's in-memory indexes, without handing out the
// rows themselves — the number of common neighbors of two nodes, and, through
// a hub's bitset row and its rank directory, how many of a hub's neighbors
// lie below a node and whether that node is one of them. Only clients whose
// access is free implement it (the in-memory GraphClient); crawl-style
// clients deliberately do not, so the walk kernel falls back to merging and
// galloping fetched rows and the measured API cost stays faithful to what a
// real crawler would pay.
type CommonCounter interface {
	// CommonNeighborCount returns |N(u) ∩ N(v)|.
	CommonNeighborCount(u, v int32) int
	// HubRow returns v's hub bitset row with its rank directory, or the
	// zero graph.HubRow when v owns none.
	HubRow(v int32) graph.HubRow
}

// GraphClient adapts an in-memory graph.Graph to the Client interface.
type GraphClient struct {
	g *graph.Graph
}

// NewGraphClient wraps g.
func NewGraphClient(g *graph.Graph) *GraphClient { return &GraphClient{g: g} }

// Degree implements Client.
func (c *GraphClient) Degree(v int32) int { return c.g.Degree(v) }

// Neighbors implements Client.
func (c *GraphClient) Neighbors(v int32) []int32 { return c.g.Neighbors(v) }

// HasEdge implements Client.
func (c *GraphClient) HasEdge(u, v int32) bool { return c.g.HasEdge(u, v) }

// RandomNode implements Client.
func (c *GraphClient) RandomNode(rng *rand.Rand) int32 { return c.g.RandomNode(rng) }

// CommonNeighborCount implements CommonCounter via the graph layer's intersection:
// a bit test per element of the shorter row against a hub's bitset row, else
// a galloping intersection (O(min·log(max/min)) under degree skew).
func (c *GraphClient) CommonNeighborCount(u, v int32) int { return c.g.CommonNeighbors(u, v) }

// HubRow implements CommonCounter.
func (c *GraphClient) HubRow(v int32) graph.HubRow { return c.g.HubRow(v) }

// Stats aggregates API-call counters.
type Stats struct {
	DegreeCalls   int64
	NeighborCalls int64 // Neighbors fetches
	EdgeProbes    int64
	// UniqueNodes is the number of distinct nodes whose neighborhood was
	// fetched — the crawl footprint the paper reports (e.g. "we only exploit
	// 0.03% nodes of Sinaweibo").
	UniqueNodes int64
}

// Counting wraps a Client and counts API calls. It is safe for concurrent
// use; the unique-node set is maintained with a lock-free presence array.
type Counting struct {
	inner Client

	degree    atomic.Int64
	neighbors atomic.Int64
	probes    atomic.Int64
	unique    atomic.Int64
	seen      []atomic.Bool
}

// NewCounting wraps inner; numNodes sizes the unique-node tracking array.
func NewCounting(inner Client, numNodes int) *Counting {
	return &Counting{inner: inner, seen: make([]atomic.Bool, numNodes)}
}

func (c *Counting) touch(v int32) {
	if int(v) < len(c.seen) && !c.seen[v].Swap(true) {
		c.unique.Add(1)
	}
}

// Degree implements Client.
func (c *Counting) Degree(v int32) int {
	c.degree.Add(1)
	c.touch(v)
	return c.inner.Degree(v)
}

// Neighbors implements Client.
func (c *Counting) Neighbors(v int32) []int32 {
	c.neighbors.Add(1)
	c.touch(v)
	return c.inner.Neighbors(v)
}

// HasEdge implements Client.
func (c *Counting) HasEdge(u, v int32) bool {
	c.probes.Add(1)
	return c.inner.HasEdge(u, v)
}

// RandomNode implements Client.
func (c *Counting) RandomNode(rng *rand.Rand) int32 { return c.inner.RandomNode(rng) }

// Stats returns a snapshot of the counters.
func (c *Counting) Stats() Stats {
	return Stats{
		DegreeCalls:   c.degree.Load(),
		NeighborCalls: c.neighbors.Load(),
		EdgeProbes:    c.probes.Load(),
		UniqueNodes:   c.unique.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counting) Reset() {
	c.degree.Store(0)
	c.neighbors.Store(0)
	c.probes.Store(0)
	c.unique.Store(0)
	for i := range c.seen {
		c.seen[i].Store(false)
	}
}
