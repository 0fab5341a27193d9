package access

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

// RowSource is the row half of the crawl interface, and all a Memo asks of
// the source it wraps: whole neighbor rows and walk seeds. Every Client is
// one; a bare transport (the apiserver HTTP client) implements nothing else.
type RowSource interface {
	// Neighbors returns the neighbor list of v, sorted strictly ascending.
	// The sorted order is a contract, not a convenience: the walk kernel's
	// merge-based candidate generation and every binary-search edge probe
	// depend on it (graph.Validate asserts it for in-memory graphs, and the
	// apiserver crawl client re-establishes it at the wire boundary).
	// Callers must not modify the returned slice.
	Neighbors(v int32) []int32
	// RandomNode returns a uniformly random node ID to seed a walk. (Real
	// crawls obtain seeds out of band; uniformity is not required by any
	// estimator, only reachability.)
	RandomNode(rng *rand.Rand) int32
}

// Memo is the repository's one neighbor-row memo: it turns a RowSource into
// a concurrency-safe Client. The first fetch of a node's neighbor list goes
// to the inner source, every later call — from any goroutine — is answered
// from the cache. Concurrent fetches of the same node are coalesced (per-node
// single flight), so an ensemble of parallel walkers crawling over an
// expensive boundary (the HTTP apiserver transport, a Delayed client modeling
// API latency) pays for each neighborhood exactly once no matter how many
// walkers touch it.
//
// Edge probes are answered from whichever endpoint's list is already cached,
// and otherwise charge a fetch of u's list — the strategy a polite crawler
// uses instead of a dedicated edge endpoint. Wrap a Counting client *inside*
// the Memo to measure the de-duplicated crawl cost, or outside to measure
// the walkers' raw demand.
type Memo struct {
	inner  RowSource
	shards [memoShards]memoShard

	// hubBudget is the bytes still available for dense adjacency rows.
	hubBudget atomic.Int64
}

const memoShards = 64

// memoHubDegreeFloor mirrors graph.Graph's hub threshold: below it a binary
// search is only a handful of steps and a bitset row would waste memory.
const memoHubDegreeFloor = 64

// memoHubBudgetFloor is the baseline byte budget for hub rows; each crawled
// neighbor list adds 4 bytes per entry on top (the same all-rows-cost-what-
// the-adjacency-costs rule graph.Graph.buildHubIndex uses, adapted to a
// cache whose "adjacency array" grows as the crawl proceeds).
const memoHubBudgetFloor = 1 << 20

type memoShard struct {
	mu sync.Mutex
	m  map[int32]*memoEntry
}

type memoEntry struct {
	once sync.Once
	done atomic.Bool
	ns   []int32
	// bits is a dense adjacency row covering node ids up to the largest
	// neighbor (nil for non-hubs or when over budget): bit v set iff v is a
	// neighbor. Built before done is published, so any reader that observed
	// done also observes the row.
	bits []uint64
}

// NewMemo wraps inner. The inner source must be safe for concurrent use if
// the Memo is shared across goroutines (all clients in this package and in
// internal/apiserver are).
func NewMemo(inner RowSource) *Memo {
	c := &Memo{inner: inner}
	for i := range c.shards {
		c.shards[i].m = make(map[int32]*memoEntry)
	}
	c.hubBudget.Store(memoHubBudgetFloor)
	return c
}

func (c *Memo) shard(v int32) *memoShard { return &c.shards[uint32(v)%memoShards] }

// entry resolves v's cache entry, fetching its neighbor list from the inner
// source at most once across all goroutines. A panicking inner fetch (crawl
// clients report transport failures that way) must not poison the cache: the
// failed entry is dropped so a later caller retries, and goroutines that were
// coalesced onto the failed fetch panic too instead of mistaking the nil
// slice for a degree-0 node.
func (c *Memo) entry(v int32) *memoEntry {
	sh := c.shard(v)
	sh.mu.Lock()
	e, ok := sh.m[v]
	if !ok {
		e = &memoEntry{}
		sh.m[v] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if !e.done.Load() { // fetch panicked: un-cache the poisoned entry
				sh.mu.Lock()
				if sh.m[v] == e {
					delete(sh.m, v)
				}
				sh.mu.Unlock()
			}
		}()
		e.ns = c.inner.Neighbors(v)
		// Every crawled list funds the hub-row budget, then high-degree
		// nodes claim a dense bitset from it (graph.Graph's rule).
		c.hubBudget.Add(int64(4 * len(e.ns)))
		e.bits = c.buildHubRow(e.ns)
		e.done.Store(true)
	})
	if !e.done.Load() {
		panic(fmt.Sprintf("access: memoized fetch of node %d failed in another goroutine", v))
	}
	return e
}

// cachedEntry returns v's cache entry only if it is already fully fetched.
func (c *Memo) cachedEntry(v int32) (*memoEntry, bool) {
	sh := c.shard(v)
	sh.mu.Lock()
	e, ok := sh.m[v]
	sh.mu.Unlock()
	if ok && e.done.Load() {
		return e, true
	}
	return nil, false
}

// buildHubRow constructs the dense adjacency row for a fetched neighbor
// list, when the list qualifies as a hub and the byte budget allows. The row
// spans ids up to the largest neighbor only — any id past the row's end is
// by construction not a neighbor.
func (c *Memo) buildHubRow(ns []int32) []uint64 {
	if len(ns) < memoHubDegreeFloor {
		return nil
	}
	stride := int(ns[len(ns)-1]>>6) + 1
	need := int64(stride) * 8
	if c.hubBudget.Add(-need) < 0 {
		c.hubBudget.Add(need) // return the credit; this node stays rowless
		return nil
	}
	row := make([]uint64, stride)
	for _, u := range ns {
		row[u>>6] |= 1 << (uint(u) & 63)
	}
	return row
}

// contains answers a membership probe against a fetched entry: O(1) off the
// hub row when one was built, binary search otherwise.
func (e *memoEntry) contains(v int32) bool {
	if e.bits != nil {
		idx := int(uint32(v) >> 6)
		if idx >= len(e.bits) {
			return false
		}
		return e.bits[idx]&(1<<(uint(v)&63)) != 0
	}
	_, found := slices.BinarySearch(e.ns, v)
	return found
}

// Degree implements Client.
func (c *Memo) Degree(v int32) int { return len(c.entry(v).ns) }

// Neighbors implements Client.
func (c *Memo) Neighbors(v int32) []int32 { return c.entry(v).ns }

// HasEdge implements Client, answering from cached neighbor lists when
// either endpoint is present — O(1) against hot crawled hubs via their
// bitset rows — and otherwise fetching u's list.
func (c *Memo) HasEdge(u, v int32) bool {
	if e, ok := c.cachedEntry(u); ok {
		return e.contains(v)
	}
	if e, ok := c.cachedEntry(v); ok {
		return e.contains(u)
	}
	return c.entry(u).contains(v)
}

// RandomNode implements Client.
func (c *Memo) RandomNode(rng *rand.Rand) int32 { return c.inner.RandomNode(rng) }
