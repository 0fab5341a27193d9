package service

import (
	"container/list"

	"repro/internal/core"
	"repro/internal/obs"
)

// resultCache is an LRU cache of completed estimation results keyed by the
// comparable spec key. Caching whole results is sound because the engine is
// deterministic: equal Config and Seed produce byte-identical merged
// Results at any GOMAXPROCS, so a cached entry is indistinguishable from a
// re-run. Partial (cancelled/failed) results are never cached.
//
// Every entry is a single-size result. A job puts one entry per size at
// settle (the shared-walk per-size results are byte-identical to independent
// single-size runs, so a multi-size job's entries are interchangeable with
// ones single-size jobs would have produced), and a submission is answered
// from the cache by reassembling all of its per-size entries
// (Manager.cacheGetLocked).
//
// Each entry remembers the job that produced it (its owner) — a multi-size
// job owns several entries at once, so the owner index is a live-entry
// count. Journal compaction consults the owner set so a result's on-disk
// record survives for as long as any of its cache entries does — even after
// the producing job is pruned from the bounded job table — which is what
// keeps the cache warm across restarts.
//
// The cache is not internally locked; the Manager serializes access under
// its own mutex, which also keeps cache lookups atomic with the in-flight
// coalescing map (a spec must never be both cached and in flight).
type resultCache struct {
	cap       int
	ll        *list.List // front = most recently used
	items     map[specKey]*list.Element
	owners    map[string]int // producing job ID -> its live entry count
	evictions *obs.Counter   // capacity evictions (not dropGraph purges)
}

type cacheEntry struct {
	key   specKey
	res   *core.Result
	owner string
}

func newResultCache(capacity int, evictions *obs.Counter) *resultCache {
	return &resultCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[specKey]*list.Element),
		owners:    make(map[string]int),
		evictions: evictions,
	}
}

// get returns the cached result for the spec key, refreshing its recency.
func (c *resultCache) get(key specKey) (*core.Result, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts (or refreshes) the key's result as produced by job owner,
// evicting the least recently used entry when over capacity.
func (c *resultCache) put(key specKey, res *core.Result, owner string) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*cacheEntry)
		c.releaseOwner(entry.owner)
		entry.res, entry.owner = res, owner
		if owner != "" {
			c.owners[owner]++
		}
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, res: res, owner: owner})
	c.items[key] = el
	if owner != "" {
		c.owners[owner]++
	}
	for c.ll.Len() > c.cap {
		c.removeElement(c.ll.Back())
		c.evictions.Inc()
	}
}

// releaseOwner drops one live-entry reference from the job's owner count.
func (c *resultCache) releaseOwner(jobID string) {
	if jobID == "" {
		return
	}
	if c.owners[jobID]--; c.owners[jobID] <= 0 {
		delete(c.owners, jobID)
	}
}

// ownerSet snapshots the producing-job IDs of all live entries (the async
// compaction path copies it out from under Manager.mu before rewriting
// segments without the lock).
func (c *resultCache) ownerSet() map[string]bool {
	out := make(map[string]bool, len(c.owners))
	for id := range c.owners {
		out[id] = true
	}
	return out
}

// dropGraph removes every entry keyed to the named graph (the graph was
// unregistered; its results must not outlive it) and reports how many were
// purged.
func (c *resultCache) dropGraph(name string) int {
	purged := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*cacheEntry).key.graph == name {
			c.removeElement(el)
			purged++
		}
	}
	return purged
}

func (c *resultCache) removeElement(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, entry.key)
	c.releaseOwner(entry.owner)
}

func (c *resultCache) len() int { return c.ll.Len() }
