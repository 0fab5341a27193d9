package access

import (
	"sync"
	"testing"

	"repro/internal/gen"
)

func TestMemoAnswersMatchInner(t *testing.T) {
	g := gen.HolmeKim(120, 3, 0.5, 11)
	inner := NewGraphClient(g)
	memo := NewMemo(inner)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if memo.Degree(v) != inner.Degree(v) {
			t.Fatalf("Degree(%d) mismatch", v)
		}
		ns := memo.Neighbors(v)
		want := inner.Neighbors(v)
		if len(ns) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, ns, want)
		}
		for i := range ns {
			if ns[i] != want[i] {
				t.Fatalf("Neighbors(%d)[%d] mismatch", v, i)
			}
			if memo.Neighbors(v)[i] != want[i] {
				t.Fatalf("Neighbors(%d)[%d] mismatch on a second fetch", v, i)
			}
		}
	}
	for u := int32(0); u < 40; u++ {
		for v := int32(0); v < 40; v++ {
			if u != v && memo.HasEdge(u, v) != inner.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
}

// TestMemoSingleFlight hammers the same nodes from many goroutines (run with
// -race): every distinct node must be fetched from the inner client exactly
// once, which a Counting client inside the Memo observes directly.
func TestMemoSingleFlight(t *testing.T) {
	g := gen.HolmeKim(50, 3, 0.5, 3)
	counting := NewCounting(NewGraphClient(g), g.NumNodes())
	memo := NewMemo(counting)

	const goroutines = 16
	const nodes = 20
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for v := int32(0); v < nodes; v++ {
					memo.Neighbors(v)
					memo.Degree(v)
				}
			}
		}()
	}
	wg.Wait()

	st := counting.Stats()
	if st.NeighborCalls != nodes {
		t.Errorf("inner fetched %d times, want exactly %d (one per node)", st.NeighborCalls, nodes)
	}
}

// TestMemoHasEdgeUsesCachedEndpoint: once v's list is cached, HasEdge(u, v)
// must not trigger a fetch of u.
func TestMemoHasEdgeUsesCachedEndpoint(t *testing.T) {
	g := gen.HolmeKim(30, 3, 0.5, 7)
	counting := NewCounting(NewGraphClient(g), g.NumNodes())
	memo := NewMemo(counting)

	memo.Neighbors(3)
	before := counting.Stats().NeighborCalls
	memo.HasEdge(7, 3) // 3 cached -> answered from its list
	if got := counting.Stats().NeighborCalls; got != before {
		t.Errorf("HasEdge fetched a list (%d -> %d) despite a cached endpoint", before, got)
	}
	memo.HasEdge(7, 8) // neither cached -> exactly one fetch (of node 7)
	if got := counting.Stats().NeighborCalls; got != before+1 {
		t.Errorf("HasEdge on uncached pair issued %d fetches, want 1", got-before)
	}
}

// flakyClient panics on the first neighbor fetch, then recovers; calls
// counts every fetch, the failed one included.
type flakyClient struct {
	Client
	failed bool
	calls  int
}

func (c *flakyClient) Neighbors(v int32) []int32 {
	c.calls++
	if !c.failed {
		c.failed = true
		panic("transport down")
	}
	return c.Client.Neighbors(v)
}

// A panicking inner fetch must not poison the memo cache: the panic
// propagates to the caller, and a retry fetches fresh instead of silently
// returning a nil neighbor list.
func TestMemoFetchPanicNotCached(t *testing.T) {
	g := gen.Complete(4)
	inner := &flakyClient{Client: NewGraphClient(g)}
	m := NewMemo(inner)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first fetch should have panicked")
			}
		}()
		m.Neighbors(0)
	}()

	ns := m.Neighbors(0) // retry must reach the (now healthy) inner client
	if len(ns) != 3 {
		t.Fatalf("post-panic retry returned %v, want 3 neighbors", ns)
	}
	if got := inner.calls; got != 2 {
		t.Errorf("inner fetches = %d, want 2 (failed + retry)", got)
	}
}

// Hub bitsets: crawling a high-degree node builds a dense adjacency row, and
// HasEdge answers against it agree exactly with the inner client — including
// probes beyond the row's end (ids larger than the hub's largest neighbor).
func TestMemoHubBitsetCorrect(t *testing.T) {
	g := gen.BarabasiAlbert(800, 6, 5)
	inner := NewGraphClient(g)
	memo := NewMemo(inner)

	// Find a hub (BA graphs always have one) and crawl it.
	var hub int32 = -1
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if inner.Degree(v) >= memoHubDegreeFloor {
			hub = v
			break
		}
	}
	if hub < 0 {
		t.Fatal("fixture has no hub")
	}
	memo.Neighbors(hub)
	e, ok := memo.cachedEntry(hub)
	if !ok || e.bits == nil {
		t.Fatal("hub entry has no bitset row")
	}
	// The crawled list funded the budget and the row, one word per 64 ids up
	// to the hub's largest neighbor, was charged against it.
	if words := int(e.ns[len(e.ns)-1]>>6) + 1; len(e.bits) != words {
		t.Fatalf("hub row spans %d words, want %d", len(e.bits), words)
	}
	if got, want := memo.hubBudget.Load(), int64(memoHubBudgetFloor+4*len(e.ns)-8*len(e.bits)); got != want {
		t.Fatalf("hub budget after one row = %d bytes, want %d", got, want)
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if v == hub {
			continue
		}
		if got, want := memo.HasEdge(hub, v), inner.HasEdge(hub, v); got != want {
			t.Fatalf("HasEdge(hub, %d) = %v, want %v", v, got, want)
		}
	}
	// Ids past the row's end are decisively non-adjacent, not out-of-range.
	if memo.HasEdge(hub, int32(g.NumNodes())+1000) {
		t.Error("HasEdge beyond row end returned true")
	}
}

// Low-degree nodes never get a row, and an exhausted budget degrades
// gracefully to binary search (answers stay correct).
func TestMemoHubBudget(t *testing.T) {
	g := gen.BarabasiAlbert(800, 6, 5)
	inner := NewGraphClient(g)
	memo := NewMemo(inner)
	memo.hubBudget.Store(8) // too small for any row, and fetches barely fund it

	var hub, leaf int32 = -1, -1
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if hub < 0 && inner.Degree(v) >= memoHubDegreeFloor {
			hub = v
		}
		if leaf < 0 && inner.Degree(v) < memoHubDegreeFloor {
			leaf = v
		}
	}
	memo.Neighbors(leaf)
	if e, _ := memo.cachedEntry(leaf); e.bits != nil {
		t.Error("low-degree node got a bitset row")
	}
	memo.Neighbors(hub)
	for v := int32(0); v < 100; v++ {
		if v != hub && memo.HasEdge(hub, v) != inner.HasEdge(hub, v) {
			t.Fatalf("HasEdge(hub, %d) mismatch under exhausted budget", v)
		}
	}
}

// Concurrent crawls of hubs race the row build against probes (run with
// -race): any goroutine that sees the entry done must also see its row.
func TestMemoHubBitsetConcurrent(t *testing.T) {
	g := gen.BarabasiAlbert(400, 8, 9)
	inner := NewGraphClient(g)
	memo := NewMemo(inner)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				u := (v + seed) % int32(g.NumNodes())
				w := (u + 1) % int32(g.NumNodes())
				if memo.HasEdge(u, w) != inner.HasEdge(u, w) {
					t.Errorf("HasEdge(%d,%d) mismatch", u, w)
					return
				}
			}
		}(int32(w * 37))
	}
	wg.Wait()
}
