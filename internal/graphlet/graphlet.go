// Package graphlet provides the combinatorial machinery of the paper that is
// independent of any concrete input graph: the catalog of all connected
// non-isomorphic k-node graphlets for k = 3, 4, 5, O(1) isomorphism
// classification via precomputed code tables, the state-corresponding
// coefficients α (Algorithm 2), and the chain enumeration shared with the
// corresponding-state-sampling optimization (Algorithm 3), both as the
// generic EnumerateChains and compiled per (k, d) into a ChainTable indexed
// by adjacency code (chains.go), which is what the estimator reads per step.
//
// A k-node induced subgraph is encoded as a bitmask ("code") over the
// k(k-1)/2 unordered node pairs in lexicographic order. The canonical code of
// a graph is the minimum code over all k! relabelings; two subgraphs are
// isomorphic iff their canonical codes agree. For k ≤ 5 there are at most
// 2^10 = 1024 codes, so classification is a table lookup.
package graphlet

import (
	"fmt"
	"sort"
)

// MaxK is the largest graphlet size supported by the catalog.
const MaxK = 5

// Graphlet describes one connected non-isomorphic induced subgraph pattern.
type Graphlet struct {
	K      int    // number of nodes
	ID     int    // paper ID, 1-based within size class (g^k_ID)
	Name   string // human-readable name ("triangle", "4-path", ...)
	Edges  int    // number of edges
	DegSeq []int  // degree sequence, ascending
	Adj    [5][5]bool
	// Alpha[d] is the state-corresponding coefficient α^k_i for the random
	// walk on G(d), for d = 1..k (Alpha[0] is unused). Alpha[k] = 1 (l = 1).
	Alpha []int64
}

type kinfo struct {
	k        int
	pairs    [][2]int // lexicographic pair order; bit i of a code is pairs[i]
	perms    [][]int
	catalog  []Graphlet
	classify []int16 // code -> catalog index (0-based) or -1 if disconnected
}

var infos [MaxK + 1]*kinfo

func init() {
	for k := 3; k <= MaxK; k++ {
		infos[k] = buildKInfo(k)
		for bit, p := range infos[k].pairs {
			if p[1] == p[0]+1 {
				rowBits[k][p[0]] = uint8(bit)
			}
		}
	}
}

func ki(k int) *kinfo {
	if k < 3 || k > MaxK {
		panic(fmt.Sprintf("graphlet: unsupported size k=%d (want 3..%d)", k, MaxK))
	}
	return infos[k]
}

// Count returns the number of distinct connected k-node graphlets
// (2 for k=3, 6 for k=4, 21 for k=5).
func Count(k int) int { return len(ki(k).catalog) }

// Catalog returns the graphlets of size k ordered by paper ID (index i holds
// g^k_{i+1}). The returned slice is shared; callers must not modify it.
func Catalog(k int) []Graphlet { return ki(k).catalog }

// Pairs returns the lexicographic unordered-pair order defining code bits for
// size k. The returned slice is shared and must not be modified.
func Pairs(k int) [][2]int { return ki(k).pairs }

// ClassifyCode maps a k-node adjacency code to its 0-based catalog index
// (paper ID minus one), or -1 if the code is disconnected.
func ClassifyCode(k int, code uint16) int { return int(ki(k).classify[code]) }

// ByID returns the graphlet g^k_id (1-based paper ID).
func ByID(k, id int) *Graphlet { return &ki(k).catalog[id-1] }

// Alpha returns α^k_id for the random walk on G(d); id is the 1-based paper
// ID and d ranges over 1..k.
func Alpha(k, d, id int) int64 {
	g := ByID(k, id)
	if d < 1 || d > k {
		panic(fmt.Sprintf("graphlet: Alpha: d=%d out of range 1..%d", d, k))
	}
	return g.Alpha[d]
}

// CodeOf builds the adjacency code of k concrete nodes under the given edge
// predicate over node indices 0..k-1.
func CodeOf(k int, hasEdge func(i, j int) bool) uint16 {
	var code uint16
	for bit, p := range ki(k).pairs {
		if hasEdge(p[0], p[1]) {
			code |= 1 << uint(bit)
		}
	}
	return code
}

// rowBits[k][i] is the code bit of pair (i, i+1) for size k. In the
// lexicographic pair order row i's pairs (i, j), j > i, are consecutive bits
// from there on.
var rowBits [MaxK + 1][MaxK]uint8

// CodeOfRows builds the adjacency code of k nodes from upper-triangular
// adjacency rows: bit j of rows[i], for j > i, is set iff nodes i and j are
// adjacent, and bits at or below i are ignored. Each row lands in the code
// with one shift read from a per-k table. It equals CodeOf over the same
// adjacency.
func CodeOfRows(k int, rows *[MaxK]uint8) uint16 {
	first := &rowBits[k]
	var code uint16
	for i := 0; i < k-1; i++ {
		code |= uint16(rows[i]>>uint(i+1)) << first[i]
	}
	return code
}

// buildKInfo constructs the catalog and classification table for size k.
func buildKInfo(k int) *kinfo {
	info := &kinfo{k: k}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			info.pairs = append(info.pairs, [2]int{i, j})
		}
	}
	info.perms = permutations(k)

	nb := len(info.pairs)
	nCodes := 1 << uint(nb)
	info.classify = make([]int16, nCodes)

	canonIndex := make(map[uint16]int16) // canonical code -> catalog index (temp order)
	var canonical []uint16
	for code := 0; code < nCodes; code++ {
		c := uint16(code)
		if !codeConnected(info, c) {
			info.classify[code] = -1
			continue
		}
		cc := canonicalCode(info, c)
		idx, ok := canonIndex[cc]
		if !ok {
			idx = int16(len(canonical))
			canonIndex[cc] = idx
			canonical = append(canonical, cc)
		}
		info.classify[code] = idx
	}

	// Build graphlets in temporary order.
	tmp := make([]Graphlet, len(canonical))
	for i, cc := range canonical {
		tmp[i] = makeGraphlet(info, cc)
	}
	// Compute α for every graphlet and every d.
	for i := range tmp {
		g := &tmp[i]
		g.Alpha = make([]int64, k+1)
		for d := 1; d <= k; d++ {
			g.Alpha[d] = computeAlpha(g, d)
		}
	}
	// Reorder to paper IDs and remap the classification table.
	order := paperOrder(k, tmp) // order[paperIdx] = tmp index
	remap := make([]int16, len(tmp))
	info.catalog = make([]Graphlet, len(tmp))
	for paperIdx, ti := range order {
		info.catalog[paperIdx] = tmp[ti]
		info.catalog[paperIdx].ID = paperIdx + 1
		info.catalog[paperIdx].Name = graphletName(k, paperIdx+1, &info.catalog[paperIdx])
		remap[ti] = int16(paperIdx)
	}
	for code := range info.classify {
		if info.classify[code] >= 0 {
			info.classify[code] = remap[info.classify[code]]
		}
	}
	return info
}

func makeGraphlet(info *kinfo, code uint16) Graphlet {
	g := Graphlet{K: info.k}
	for bit, p := range info.pairs {
		if code&(1<<uint(bit)) != 0 {
			g.Adj[p[0]][p[1]] = true
			g.Adj[p[1]][p[0]] = true
			g.Edges++
		}
	}
	g.DegSeq = make([]int, info.k)
	for i := 0; i < info.k; i++ {
		d := 0
		for j := 0; j < info.k; j++ {
			if g.Adj[i][j] {
				d++
			}
		}
		g.DegSeq[i] = d
	}
	sort.Ints(g.DegSeq)
	return g
}

// codeConnected reports whether the graph encoded by code is connected.
func codeConnected(info *kinfo, code uint16) bool {
	k := info.k
	var adjMask [5]uint8
	for bit, p := range info.pairs {
		if code&(1<<uint(bit)) != 0 {
			adjMask[p[0]] |= 1 << uint(p[1])
			adjMask[p[1]] |= 1 << uint(p[0])
		}
	}
	reach := uint8(1)
	for {
		next := reach
		for v := 0; v < k; v++ {
			if reach&(1<<uint(v)) != 0 {
				next |= adjMask[v]
			}
		}
		if next == reach {
			break
		}
		reach = next
	}
	return reach == uint8(1<<uint(k))-1
}

// canonicalCode returns the minimum code over all relabelings.
func canonicalCode(info *kinfo, code uint16) uint16 {
	var adj [5][5]bool
	for bit, p := range info.pairs {
		if code&(1<<uint(bit)) != 0 {
			adj[p[0]][p[1]] = true
			adj[p[1]][p[0]] = true
		}
	}
	best := uint16(1<<uint(len(info.pairs))) - 1 // all ones upper bound
	first := true
	for _, perm := range info.perms {
		var c uint16
		for bit, p := range info.pairs {
			if adj[perm[p[0]]][perm[p[1]]] {
				c |= 1 << uint(bit)
			}
		}
		if first || c < best {
			best = c
			first = false
		}
	}
	return best
}

func permutations(k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}
