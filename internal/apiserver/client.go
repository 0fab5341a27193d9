package apiserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/access"
)

// Client is the HTTP transport of the crawl API: every call is one GET, and
// nothing is remembered between calls. It offers exactly what an access.Memo
// asks of its inner source — neighbor rows and walk seeds — and the Memo in
// front of it (see NewClient) is what makes a crawl pay for each node once.
// Transport failures, non-200 answers and undecodable bodies panic; the
// estimation engine converts client panics into the run's error.
//
// Client is safe for concurrent use.
type Client struct {
	ctx  context.Context // every request runs under it
	base string
	http *http.Client

	requests atomic.Int64
}

var _ access.RowSource = (*Client)(nil)

// DefaultTimeout bounds each HTTP round trip of a NewClient. A remote graph
// API that stops answering must surface as a walker error within this
// window, never as an indefinite hang (a distributed worker stuck here
// would stall its coordinator until the partition watchdog gives up on the
// whole node).
const DefaultTimeout = 30 * time.Second

// NewClient crawls the API at base (e.g. "http://127.0.0.1:8080"): it
// returns the access.Client the walkers share — an access.Memo, so each
// neighborhood costs one request however many walkers and steps revisit it,
// concurrent fetches of one node coalesce, and crawled hubs answer HasEdge
// from a bitset row — and the transport underneath it, whose RequestCount is
// the crawl's HTTP cost. Every request runs under ctx: once it is canceled
// or past its deadline, in-flight and later calls abort with the panic
// convention instead of waiting out the transport. Each request also has
// DefaultTimeout — the client is never http.DefaultClient, which waits
// forever.
func NewClient(ctx context.Context, base string) (*access.Memo, *Client) {
	c := &Client{ctx: ctx, base: base, http: &http.Client{Timeout: DefaultTimeout}}
	return access.NewMemo(c), c
}

// RequestCount returns the number of HTTP round trips issued so far.
func (c *Client) RequestCount() int64 { return c.requests.Load() }

// Neighbors fetches v's neighbor row.
func (c *Client) Neighbors(v int32) []int32 {
	var resp neighborsResponse
	c.get(fmt.Sprintf("%s/v1/nodes/%d/neighbors", c.base, v), &resp)
	return canonicalRow(v, resp.Neighbors)
}

// RandomNode draws a walk seed from the server's seed endpoint. The local
// rng is unused: seed selection happens server-side, as with real crawl
// seeds obtained out of band.
func (c *Client) RandomNode(_ *rand.Rand) int32 {
	var resp randomNodeResponse
	c.get(c.base+"/v1/nodes/random", &resp)
	return resp.ID
}

// canonicalRow re-establishes the access.RowSource row contract for v's row
// — strictly ascending, no duplicates, and not v itself — at the wire
// boundary. The walk kernel's merge iteration and the memo's binary-search
// and bitset HasEdge depend on order, and a kept self-loop would let a d = 1
// walk step from v to v (biasing the estimate) and a d = 2 walk build a
// one-node edge. Rows from this package's server are already canonical, so
// the common case is one verification scan; a nonconforming third-party
// server costs a sort+compact once per node (the memo keeps the repaired
// row).
func canonicalRow(v int32, ns []int32) []int32 {
	strict := true
	for i, u := range ns {
		if u == v || i > 0 && u <= ns[i-1] {
			strict = false
			break
		}
	}
	if strict {
		return ns
	}
	slices.Sort(ns)
	ns = slices.Compact(ns)
	if i, ok := slices.BinarySearch(ns, v); ok {
		ns = slices.Delete(ns, i, i+1)
	}
	return ns
}

func (c *Client) get(url string, out any) {
	c.requests.Add(1)
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
	if err != nil {
		panic(fmt.Sprintf("apiserver client: %v", err))
	}
	r, err := c.http.Do(req)
	if err != nil {
		panic(fmt.Sprintf("apiserver client: %v", err))
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("apiserver client: %s returned %s", url, r.Status))
	}
	if err := json.NewDecoder(r.Body).Decode(out); err != nil {
		panic(fmt.Sprintf("apiserver client: decode %s: %v", url, err))
	}
}
