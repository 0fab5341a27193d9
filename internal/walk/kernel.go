package walk

import (
	"math"

	"repro/internal/access"
	"repro/internal/graph"
)

// This file is the merge-based G(d) neighbor kernel for d >= 3 (paper §5).
//
// The naive materialization gathers every neighbor of the d-1 retained nodes,
// sorts, dedups, and then re-derives connectivity of rem ∪ {y} for each
// candidate y with ~d² HasEdge probes — per candidate. Almost all of that is
// recomputable-free work:
//
//   - Adjacency rows are already sorted (access.Client contract), so a
//     (d-1)-way sorted merge enumerates the candidates of one dropped node in
//     ascending order without sorting, and produces for free the membership
//     bitmask of each candidate (which retained nodes it neighbors).
//   - The rem-internal adjacency is invariant across candidates: the
//     connected components of the retained set are computed once per
//     (state, dropped-node) pair, and rem ∪ {y} is connected iff y's
//     membership mask intersects every component. Connectivity becomes a
//     handful of AND instructions; the per-candidate HasEdge storm is gone.
//   - Nothing needs materializing: a walk step needs only the state's G(d)
//     degree (one counting scan; for d = 3 on free-access clients the closed
//     form of countGroups3) and the i-th neighbor of the uniform draw. The
//     kernel caches a compact stateInfo — degree, per-group counts, internal
//     adjacency masks — instead of neighbor *lists*, so the steady state
//     allocates nothing and builds exactly one State per transition.
//   - For d = 3 the draw is a selection, not a scan (selectNth): only the
//     shorter of the two retained rows is iterated and the longer one — under
//     the degree-proportional stationary distribution usually a hub's — is
//     galloped, so the step costs O(short row) rather than a merge across
//     ~1 000 hub-row entries. For d >= 4 the draw is the (d-1)-way merge
//     stopped at the drawn candidate.
//
// The canonical neighbor order (dropped nodes in state order, candidates
// ascending within each group) is exactly the order the naive
// gather→sort→dedup emitted, so RNG draw sequences — and therefore estimates
// — are byte-identical to the historical kernel. referenceNeighbors below
// retains the naive implementation as the equivalence oracle for tests.

// AdjMask is the internal adjacency of a state's nodes: bit j of entry i is
// set iff Node(i) and Node(j) are adjacent in G. Entries beyond the state's
// length are zero.
type AdjMask [MaxD]uint8

// stateInfo is the per-state record the kernel caches in place of a
// materialized neighbor list: 3 words instead of O(Σ deg) states.
type stateInfo struct {
	deg int32       // G(d) degree of the state
	cnt [MaxD]int32 // connected candidates per dropped node (group sizes)
	adj AdjMask     // internal adjacency of the state's nodes
}

// infoCacheCap bounds the stateInfo cache. Entries are ~50 bytes, and the
// walk only re-queries states inside the current window plus CSS chain
// states, so a few hundred entries make recomputation rare; past capacity
// the cache evicts by second chance (see infoCache), so states the walk
// keeps touching survive overflow while drive-by states recycle, and
// steady-state inserts never allocate.
const infoCacheCap = 256

// infoOf returns (computing and caching if needed) the kernel record of st.
func (s *spaceD) infoOf(st State) stateInfo {
	if fi, ok := s.info.get(st); ok {
		return fi
	}
	var fi stateInfo
	d := st.Len()
	// Internal adjacency: the only HasEdge probes the kernel issues —
	// d(d-1)/2 per state, not per candidate.
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if s.c.HasEdge(st.Node(i), st.Node(j)) {
				fi.adj[i] |= 1 << uint(j)
				fi.adj[j] |= 1 << uint(i)
			}
		}
	}
	if d == 3 && s.cc != nil {
		s.countGroups3(st, &fi)
	} else {
		var g groupScan
		for xi := 0; xi < d; xi++ {
			g.prepare(s.c, st, xi, fi.adj)
			fi.cnt[xi] = g.count()
			fi.deg += fi.cnt[xi]
		}
	}
	s.info.put(st, fi)
	return fi
}

// countGroups3 is the closed-form group count for d = 3 on clients whose
// access is free (access.CommonCounter): with rem = {a, b} the candidate set
// is N(a) ∪ N(b) when a ~ b and N(a) ∩ N(b) otherwise, so the count follows
// from degrees, one galloping intersection, and the st-member corrections
// read off the internal adjacency masks — no row scan at all. Crawl-style
// clients take the generic merge instead, which charges their Neighbors
// fetches honestly.
func (s *spaceD) countGroups3(st State, fi *stateInfo) {
	for xi := 0; xi < 3; xi++ {
		ia, ib := 0, 1
		switch xi {
		case 0:
			ia, ib = 1, 2
		case 1:
			ia, ib = 0, 2
		}
		a, b := st.Node(ia), st.Node(ib)
		common := int32(s.cc.CommonNeighborCount(a, b))
		xA := fi.adj[xi]&(1<<uint(ia)) != 0 // dropped node ~ a
		xB := fi.adj[xi]&(1<<uint(ib)) != 0 // dropped node ~ b
		var cnt int32
		if fi.adj[ia]&(1<<uint(ib)) != 0 {
			// rem connected: every union member extends it. Union size minus
			// the st members inside it (a and b are, being mutual neighbors;
			// the dropped node is iff it neighbors either).
			cnt = int32(s.c.Degree(a)) + int32(s.c.Degree(b)) - common - 2
			if xA || xB {
				cnt--
			}
		} else {
			// rem disconnected: the candidate must bridge a and b, i.e. lie in
			// the intersection; only the dropped node can be an st member
			// there.
			cnt = common
			if xA && xB {
				cnt--
			}
		}
		fi.cnt[xi] = cnt
		fi.deg += cnt
	}
}

// nthNeighbor returns the i-th neighbor of st in the canonical order. The
// group counts locate the dropped node, so only that group's rows are read.
func (s *spaceD) nthNeighbor(st State, fi stateInfo, i int32) State {
	for xi := 0; xi < st.Len(); xi++ {
		if i < fi.cnt[xi] {
			var g groupScan
			g.prepare(s.c, st, xi, fi.adj)
			return g.nth(i)
		}
		i -= fi.cnt[xi]
	}
	panic("walk: neighbor index out of range")
}

// groupScan is one (state, dropped-node) merge: the sorted rows of the d-1
// retained nodes, their pre-resolved connected components, and the merge
// cursor. It lives on the stack of its caller; nothing escapes.
type groupScan struct {
	st    State
	n     int               // number of retained nodes (d-1)
	rem   [MaxD - 1]int32   // retained nodes, ascending
	rows  [MaxD - 1][]int32 // their sorted adjacency rows
	pos   [MaxD - 1]int     // merge cursor
	comps [MaxD - 1]uint8   // rem components as membership-mask requirements
	nc    int               // number of components
}

// prepare loads the rows and derives the retained set's connected components
// from the state's internal adjacency masks — no graph probes.
func (g *groupScan) prepare(c access.Client, st State, xi int, adj AdjMask) {
	d := st.Len()
	g.st = st
	g.n = d - 1
	// remAdj is adj restricted to the retained nodes, re-indexed to rem
	// positions (st index i maps to rem position i, or i-1 past xi).
	var remAdj [MaxD - 1]uint8
	for p := 0; p < g.n; p++ {
		si := p
		if p >= xi {
			si = p + 1
		}
		g.rem[p] = st.Node(si)
		g.rows[p] = c.Neighbors(g.rem[p])
		g.pos[p] = 0
		m := adj[si] &^ (1 << uint(xi))
		// Compress the mask from st-index space to rem-index space.
		var rm uint8
		for q := 0; q < d; q++ {
			if q == xi || m&(1<<uint(q)) == 0 {
				continue
			}
			rq := q
			if q > xi {
				rq = q - 1
			}
			rm |= 1 << uint(rq)
		}
		remAdj[p] = rm
	}
	// Flood-fill the components. rem ∪ {y} is connected iff y's membership
	// mask intersects every component (y is the only possible bridge).
	g.nc = 0
	var seen uint8
	for p := 0; p < g.n; p++ {
		if seen&(1<<uint(p)) != 0 {
			continue
		}
		comp := uint8(1 << uint(p))
		for {
			next := comp
			for q := 0; q < g.n; q++ {
				if comp&(1<<uint(q)) != 0 {
					next |= remAdj[q]
				}
			}
			if next == comp {
				break
			}
			comp = next
		}
		seen |= comp
		g.comps[g.nc] = comp
		g.nc++
	}
}

// connected reports whether a candidate with the given membership mask keeps
// rem ∪ {y} connected.
func (g *groupScan) connected(mask uint8) bool {
	for i := 0; i < g.nc; i++ {
		if g.comps[i]&mask == 0 {
			return false
		}
	}
	return true
}

// next advances the merge by one distinct candidate, returning it with its
// membership mask, or (_, 0, false) when the rows are exhausted. Candidates
// come out strictly ascending; mask bit p is set iff rem[p] neighbors y.
func (g *groupScan) next() (y int32, mask uint8, ok bool) {
	min := int32(math.MaxInt32)
	live := false
	for p := 0; p < g.n; p++ {
		if g.pos[p] < len(g.rows[p]) {
			if h := g.rows[p][g.pos[p]]; h < min {
				min = h
			}
			live = true
		}
	}
	if !live {
		return 0, 0, false
	}
	for p := 0; p < g.n; p++ {
		if g.pos[p] < len(g.rows[p]) && g.rows[p][g.pos[p]] == min {
			mask |= 1 << uint(p)
			g.pos[p]++
		}
	}
	return min, mask, true
}

// count scans the whole group and returns the number of connected candidates
// — the degree contribution of this dropped node. No states are built.
func (g *groupScan) count() int32 {
	var cnt int32
	for {
		y, mask, ok := g.next()
		if !ok {
			return cnt
		}
		if g.st.Contains(y) {
			continue
		}
		if g.connected(mask) {
			cnt++
		}
	}
}

// nth scans to the r-th (0-based) connected candidate and builds just that
// neighbor state. r must be below the group's count.
func (g *groupScan) nth(r int32) State {
	if g.n == 2 {
		// d = 3: with one rem component any candidate of either row
		// qualifies, with two the candidate must sit in both.
		return stateInsert(g.rem[:g.n], selectNth(g.rows[0], g.rows[1], g.st, g.nc == 2, int(r)))
	}
	for {
		y, mask, ok := g.next()
		if !ok {
			panic("walk: group exhausted before the selected neighbor")
		}
		if g.st.Contains(y) {
			continue
		}
		if !g.connected(mask) {
			continue
		}
		if r == 0 {
			return stateInsert(g.rem[:g.n], y)
		}
		r--
	}
}

// selectNth returns the r-th (0-based, ascending) element of (a ∪ b) \ st —
// of (a ∩ b) \ st when both is set — for sorted rows a and b; r must be below
// that set's size. Only the shorter row is iterated. The longer one is
// galloped: between two consecutive short-row elements it contributes a run
// whose candidate count is a cursor difference, so reaching the drawn index
// costs O(min·log(max/min)) comparisons instead of a merge step per element
// of a hub row; st's members are excluded by their positions inside a run,
// not by a test per element. With rows of similar length the gallop
// degenerates to about two comparisons per element.
func selectNth(a, b []int32, st State, both bool, r int) int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	lo, mi := 0, 0 // cursors into b and into st's ascending members
	for i := 0; i <= len(a); i++ {
		// b[lo:hi) is the run of long-row elements between a[i-1] and s (past
		// a's end, b's tail). No node ID reaches MaxInt32.
		s, hi := int32(math.MaxInt32), len(b)
		if i < len(a) {
			s = a[i]
			hi = lo + graph.GallopSearch(b[lo:], s)
		}
		if !both {
			for ; mi < st.Len() && st.Node(mi) < s; mi++ {
				// A member inside the run splits it; the part below the
				// member is all candidates.
				m := st.Node(mi)
				if q := lo + graph.GallopSearch(b[lo:hi], m); q < hi && b[q] == m {
					if r < q-lo {
						return b[lo+r]
					}
					r -= q - lo
					lo = q + 1
				}
			}
			if r < hi-lo {
				return b[lo+r]
			}
			r -= hi - lo
		}
		if i == len(a) {
			break
		}
		lo = hi
		hit := lo < len(b) && b[lo] == s
		if hit {
			lo++
		}
		if both && !hit || st.Contains(s) {
			continue
		}
		if r == 0 {
			return s
		}
		r--
	}
	panic("walk: group exhausted before the selected neighbor")
}

// appendGroup scans the whole group appending every connected neighbor state
// to dst. Only the list-materializing paths (tests, the neighbors oracle)
// use it; walk transitions never do.
func (g *groupScan) appendGroup(dst []State) []State {
	for {
		y, mask, ok := g.next()
		if !ok {
			return dst
		}
		if g.st.Contains(y) {
			continue
		}
		if g.connected(mask) {
			dst = append(dst, stateInsert(g.rem[:g.n], y))
		}
	}
}

// stateInsert builds the state rem ∪ {y} directly: rem is already sorted, so
// y is spliced into place without the re-sort (and escape) of StateOf.
func stateInsert(rem []int32, y int32) State {
	var s State
	s.n = uint8(len(rem) + 1)
	i := 0
	for i < len(rem) && rem[i] < y {
		s.v[i] = rem[i]
		i++
	}
	s.v[i] = y
	for ; i < len(rem); i++ {
		s.v[i+1] = rem[i]
	}
	return s
}
