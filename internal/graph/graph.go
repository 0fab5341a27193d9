// Package graph provides the undirected simple-graph substrate used by the
// whole repository: a compact adjacency representation with sorted neighbor
// lists, fast edge probes (O(1) bitset rows for hub nodes, O(log d) binary
// search otherwise), largest-connected-component extraction, edge-list I/O
// and a binary CSR on-disk format (.gcsr) with a zero-copy mmap open path.
//
// Nodes are dense int32 identifiers in [0, N). Graphs are immutable once
// built; construction goes through Builder, Open or FromImage.
package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
)

// Graph is an immutable undirected simple graph. Neighbor lists are sorted
// ascending, enabling binary-search edge probes and linear-merge set
// intersection.
type Graph struct {
	// CSR layout: neighbors of v are adj[off[v]:off[v+1]]. For a graph built
	// from a .gcsr v1 image both slices may alias it (see readInts) — under
	// OpenMapped, the mapped file.
	off []int64
	adj []int32
	m   int64 // number of undirected edges
	// maxDeg is computed once at Build time; MaxDegree sits on estimator
	// setup paths (walk-space sizing, ESU scratch allocation) and must not
	// rescan all nodes per call.
	maxDeg int

	// Hub acceleration: the highest-degree nodes (within a memory budget,
	// see buildHubIndex) get a dense adjacency bitset row, turning HasEdge
	// probes against them into one bit test instead of a binary search, and
	// a rank directory beside the row, which answers "how many of v's
	// neighbors are below x" with one load and one popcount (HubRow.Rank).
	// hubIdx[v] is the row of v, or -1; rows are hubStride words wide, and
	// each row's directory holds one count per pair of words, hubStride/2
	// rounded up: entry j counts the row's set bits in words [0, 2j+1), up
	// to the middle of the pair, so either word of the pair reaches it with
	// one popcount (added for the second word, subtracted for the first).
	hubIdx    []int32
	hubRows   []uint64
	hubRank   []uint32
	hubStride int

	// blocks serves neighbor rows of a block-compressed (.gcsr v2) graph
	// through the bounded decoded-page cache; nil for raw-CSR graphs, whose
	// rows come straight from adj. When blocks is non-nil, adj is nil and
	// off is a heap-synthesized prefix-sum array (Degree stays O(1) either
	// way).
	blocks *blockStore

	// origIDs maps dense node IDs back to the source IDs they were packed
	// from (nil when the mapping was not kept).
	origIDs []int64

	// unmap releases the mmap backing of a graph opened with OpenMapped.
	unmap func() error
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.off) - 1 }

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified. For block-compressed graphs the
// row is served from the decode cache; a warm row costs a page lookup, an
// atomic add on the page's own counter and atomic loads of the page and of
// the row's two offsets more than the raw-CSR slice expression, and
// allocates nothing.
func (g *Graph) Neighbors(v int32) []int32 {
	if g.blocks != nil {
		return g.blocks.row(v)
	}
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists. Self loops never
// exist in a simple graph. The probe is one bit test when either endpoint is
// a hub, and a binary search of the smaller adjacency list otherwise.
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Probe the smaller adjacency list; v ends up as the higher-degree
	// endpoint, the one that can own a hub bitset row.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	if g.hubIdx != nil {
		if r := g.hubIdx[v]; r >= 0 {
			w := g.hubRows[int(r)*g.hubStride+int(u>>6)]
			return w>>(uint(u)&63)&1 == 1
		}
	}
	n := g.Neighbors(u)
	i := sort.Search(len(n), func(i int) bool { return n[i] >= v })
	return i < len(n) && n[i] == v
}

// hubDegreeFloor is the minimum degree for a hub bitset row: below it the
// binary search is only a handful of steps and a row would waste memory.
const hubDegreeFloor = 64

// buildHubIndex assigns dense adjacency bitset rows, each with its rank
// directory, to the highest-degree nodes, spending at most as many bytes on
// rows plus directories as the adj array itself occupies (with a 1 MiB floor
// so small graphs index their hubs too); a directory costs a quarter of its
// row. The threshold is chosen from the degree histogram: the smallest
// degree t >= hubDegreeFloor whose nodes all fit in the budget. Called once
// from every construction path (Builder.Build, LargestComponent and the
// .gcsr builders), which fills each row and its directory in one pass; the
// index is a derived in-memory structure, never persisted.
func (g *Graph) buildHubIndex() {
	n := g.NumNodes()
	if n == 0 || g.maxDeg < hubDegreeFloor {
		return
	}
	stride := (n + 63) >> 6
	rankStride := (stride + 1) >> 1
	rowBytes := stride*8 + rankStride*4
	// Budget rows and directories against the raw adjacency size (4
	// bytes/arc) whether the arcs are stored raw (v1) or block-compressed
	// (v2) — the bitset value is the same either way.
	budget := int(2*g.m) * 4
	if budget < 1<<20 {
		budget = 1 << 20
	}
	maxRows := budget / rowBytes
	if maxRows == 0 {
		return
	}
	hist := make([]int32, g.maxDeg+1)
	for v := 0; v < n; v++ {
		if d := g.Degree(int32(v)); d >= hubDegreeFloor {
			hist[d]++
		}
	}
	rows, threshold := 0, -1
	for d := g.maxDeg; d >= hubDegreeFloor; d-- {
		if rows+int(hist[d]) > maxRows {
			break
		}
		rows += int(hist[d])
		threshold = d
	}
	if threshold < 0 || rows == 0 {
		return
	}
	g.hubStride = stride
	g.hubRows = make([]uint64, rows*stride)
	g.hubRank = make([]uint32, rows*rankStride)
	g.hubIdx = make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) < threshold {
			g.hubIdx[v] = -1
			continue
		}
		g.hubIdx[v] = next
		h := g.hubRow(next)
		for _, u := range g.Neighbors(int32(v)) {
			h.bits[u>>6] |= 1 << (uint(u) & 63)
		}
		c := uint32(0)
		for w, word := range h.bits {
			c += uint32(bits.OnesCount64(word))
			if w&1 == 0 {
				h.rank[w>>1] = c
			}
		}
		next++
	}
}

// HubRow is a hub's adjacency bitset row with its rank directory (see
// Graph.hubRank). The zero HubRow stands for a node that owns none.
type HubRow struct {
	bits []uint64
	rank []uint32
}

// HubRow returns v's bitset row with its rank directory, or the zero HubRow
// when v owns none.
func (g *Graph) HubRow(v int32) HubRow {
	if g.hubIdx == nil || g.hubIdx[v] < 0 {
		return HubRow{}
	}
	return g.hubRow(g.hubIdx[v])
}

// hubRow returns hub row r.
func (g *Graph) hubRow(r int32) HubRow {
	stride, rankStride := g.hubStride, (g.hubStride+1)>>1
	b, k := int(r)*stride, int(r)*rankStride
	return HubRow{bits: g.hubRows[b : b+stride], rank: g.hubRank[k : k+rankStride]}
}

// IsZero reports whether h is the zero HubRow: its node owns no row.
func (h HubRow) IsZero() bool { return h.bits == nil }

// Rank returns how many of the row's nodes are below x — the index x has,
// or would have, in the node's sorted Neighbors row — and whether x is one
// of them. x must be a node of the graph. The count is the directory entry
// of x's pair of words, corrected by one popcount of x's own word.
func (h HubRow) Rank(x int32) (below int, in bool) {
	w := uint(x) >> 6
	word := h.bits[w]
	lower := uint64(1)<<(uint(x)&63) - 1
	second := uint64(w & 1) // 1 on the second word of its pair
	// The entry counts through the pair's first word: on the second word add
	// the bits below x, on the first subtract x's bit and the bits above it.
	t := bits.OnesCount64(word & (lower ^ (second - 1)))
	below = int(h.rank[w>>1]) + t*int(2*second) - t
	return below, word>>(uint(x)&63)&1 != 0
}

// Mapped reports whether the graph's storage aliases an mmap'd file.
func (g *Graph) Mapped() bool { return g.unmap != nil }

// Close releases the mmap backing of a graph opened with OpenMapped and is a
// no-op for heap-backed graphs. A mapped graph must not be used after Close;
// the internal slices are nilled so use-after-close fails fast instead of
// faulting on unmapped pages.
func (g *Graph) Close() error {
	if g.unmap == nil {
		return nil
	}
	unmap := g.unmap
	g.unmap = nil
	g.off, g.adj = nil, nil
	g.hubIdx, g.hubRows, g.hubRank = nil, nil, nil
	g.blocks, g.origIDs = nil, nil
	return unmap()
}

// RandomNode returns a uniformly random node. It panics on an empty graph.
func (g *Graph) RandomNode(rng *rand.Rand) int32 {
	return int32(rng.Intn(g.NumNodes()))
}

// Edges calls fn for every undirected edge (u < v). Iteration stops early if
// fn returns false.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// MaxDegree returns the maximum degree in the graph (0 for an empty graph).
// The value is cached at Build time, so the call is O(1).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// BlockCacheStats returns a snapshot of the decoded-page cache. ok is
// false for graphs without a block-compressed backing.
func (g *Graph) BlockCacheStats() (stats BlockCacheStats, ok bool) {
	if g.blocks == nil {
		return BlockCacheStats{}, false
	}
	return g.blocks.stats(), true
}

// HasOriginalIDs reports whether the dense→source node ID mapping was kept
// when the graph was packed.
func (g *Graph) HasOriginalIDs() bool { return g.origIDs != nil }

// OriginalID returns the source ID node v was packed from, or v itself when
// no mapping was kept (dense IDs are then the caller's IDs).
func (g *Graph) OriginalID(v int32) int64 {
	if g.origIDs == nil {
		return int64(v)
	}
	return g.origIDs[v]
}

// OriginalIDs returns the dense→source ID mapping, or nil when none was
// kept. The slice aliases internal storage and must not be modified.
func (g *Graph) OriginalIDs() []int64 { return g.origIDs }

// SetOriginalIDs attaches a dense→source ID mapping (len must equal
// NumNodes). Used by sidecar loading; pass nil to detach.
func (g *Graph) SetOriginalIDs(ids []int64) error {
	if ids != nil && len(ids) != g.NumNodes() {
		return fmt.Errorf("graph: %d original IDs for %d nodes", len(ids), g.NumNodes())
	}
	g.origIDs = ids
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.m)
}

// gallopSkew is the length ratio beyond which CommonNeighbors switches from
// the linear merge to galloping search: with |b| >> |a| the merge is
// O(|a|+|b|) while galloping is O(|a| log(|b|/|a|)).
const gallopSkew = 16

// CommonNeighbors returns the number of common neighbors of u and v. When
// the higher-degree endpoint owns a hub bitset row, the other row's elements
// are tested against it — one load per element, and the hub's own row is
// never read (on a block-compressed graph, never decoded). Otherwise: a
// linear merge of the two sorted lists, or galloping search of the longer
// list when the lengths are skewed.
func (g *Graph) CommonNeighbors(u, v int32) int {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	if g.hubIdx != nil {
		if r := g.hubIdx[v]; r >= 0 {
			row := g.hubRows[int(r)*g.hubStride : (int(r)+1)*g.hubStride]
			c := 0
			for _, x := range a {
				c += int(row[x>>6] >> (uint(x) & 63) & 1)
			}
			return c
		}
	}
	b := g.Neighbors(v)
	if len(b) >= gallopSkew*len(a) {
		c := 0
		lo := 0
		for _, x := range a {
			lo += GallopSearch(b[lo:], x)
			if lo >= len(b) {
				break
			}
			if b[lo] == x {
				c++
				lo++
			}
		}
		return c
	}
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// GallopSearch returns the index of the first element of b >= x, probing
// exponentially from the front and binary-searching the final window — O(log
// k) where k is the returned index, which is what makes skewed intersections
// cheap when consecutive probes land close together.
func GallopSearch(b []int32, x int32) int {
	if len(b) == 0 || b[0] >= x {
		return 0
	}
	hi := 1
	for hi < len(b) && b[hi] < x {
		hi <<= 1
	}
	lo := hi >> 1
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
