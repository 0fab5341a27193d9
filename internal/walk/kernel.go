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
//     degree and the i-th neighbor of the uniform draw. The kernel keeps a
//     compact stateInfo — degree, per-group counts, internal adjacency masks
//     — instead of neighbor *lists*, so the steady state allocates nothing
//     and builds exactly one State per transition.
//   - A transition derives the drawn state's record from the current one
//     instead of recounting it (derive): the two states share d-1 nodes, so
//     their mutual adjacency is copied, the new node's adjacency is the
//     draw's membership mask, the group that drops the new node keeps the
//     current count, and only the other d-1 groups are counted (d = 3 on
//     free-access clients: the closed form of count3). A transition issues
//     no HasEdge.
//   - Every record, derived or counted from scratch, goes into one fixed
//     ring of the last ringCap records on spaceD, and every lookup reads the
//     ring first. A window's states, the next state and the chain interiors
//     one CSS window names fit in it at once; a state the ring has not seen
//     lately (the start state, a restored window, an interior last named a
//     few windows ago) is counted again.
//   - For d = 3 the draw is a selection, not a scan (selectNth): only the
//     shorter of the two retained rows is iterated, and the position of each
//     of its elements in the longer one — under the degree-proportional
//     stationary distribution usually a hub's — is looked up, not merged
//     to, so the step costs O(short row) rather than a merge across ~1 000
//     hub-row entries. On free-access clients a long row whose node owns a
//     hub bitset row is looked up by rank (one directory load and one
//     popcount per element, membership a bit test); any other long row, and
//     every row a crawl client serves, is galloped. The selection starts
//     from the end of the group nearer the drawn index, which halves the
//     expected short-row scan. For d >= 4 the draw is the (d-1)-way merge
//     stopped at the drawn candidate.
//
// The canonical neighbor order (dropped nodes in state order, candidates
// ascending within each group) is exactly the order the naive
// gather→sort→dedup emitted, so RNG draw sequences — and therefore estimates
// — are byte-identical to the historical kernel. referenceNeighbors (in the
// tests) retains the naive implementation as the equivalence oracle.

// AdjMask is the internal adjacency of a state's nodes: bit j of entry i is
// set iff Node(i) and Node(j) are adjacent in G. Entries beyond the state's
// length are zero.
type AdjMask [MaxD]uint8

// stateInfo is the per-state record the kernel keeps in place of a
// materialized neighbor list: 3 words instead of O(Σ deg) states.
type stateInfo struct {
	deg int32       // G(d) degree of the state
	cnt [MaxD]int32 // connected candidates per dropped node (group sizes)
	adj AdjMask     // internal adjacency of the state's nodes
}

// ringCap is the size of spaceD's record ring: the longest d >= 3 window
// (l = k-d+1 = 3 states for k = 5, d = 3) plus the next state, and the
// C(5,3) = 10 chain interiors a k = 5 CSS window can name, rounded up from
// 14 to 16.
const ringCap = 16

// ringRecord is one entry of spaceD's record ring.
type ringRecord struct {
	st State
	fi stateInfo
}

// infoOf returns the kernel record of st: from the ring, scanned newest
// first, else computed and kept. A record is a pure function of its state,
// so the ring cannot go stale.
func (s *spaceD) infoOf(st State) stateInfo {
	i := s.newest
	for range ringCap {
		if s.ring[i].st == st {
			return s.ring[i].fi
		}
		i = (i + ringCap - 1) % ringCap
	}
	fi := s.record(st)
	s.keep(st, fi)
	return fi
}

// keep puts a record into the ring, over the oldest entry, and returns its
// state.
func (s *spaceD) keep(st State, fi stateInfo) State {
	s.newest = (s.newest + 1) % ringCap
	s.ring[s.newest] = ringRecord{st: st, fi: fi}
	return st
}

// record computes st's kernel record from scratch.
func (s *spaceD) record(st State) stateInfo {
	var fi stateInfo
	d := st.Len()
	// Internal adjacency: the only HasEdge probes the kernel issues —
	// d(d-1)/2 per state not derived by a transition, never per candidate.
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if s.c.HasEdge(st.Node(i), st.Node(j)) {
				fi.adj[i] |= 1 << uint(j)
				fi.adj[j] |= 1 << uint(i)
			}
		}
	}
	for xi := 0; xi < d; xi++ {
		fi.cnt[xi] = s.countGroup(st, fi.adj, xi)
		fi.deg += fi.cnt[xi]
	}
	return fi
}

// countGroup returns the size of st's group xi (the connected candidates
// when st's node xi is dropped): count3's closed form for d = 3 on clients
// whose access is free, the merge's counting scan otherwise.
func (s *spaceD) countGroup(st State, adj AdjMask, xi int) int32 {
	if st.Len() == 3 && s.cc != nil {
		return s.count3(st, adj, xi)
	}
	var g groupScan
	g.prepare(s.c, st, xi, adj)
	return g.count()
}

// count3 is the closed-form group count for d = 3 on clients whose access is
// free (access.CommonCounter): with rem = {a, b} the candidate set is
// N(a) ∪ N(b) when a ~ b and N(a) ∩ N(b) otherwise, so the count follows
// from degrees, one intersection count, and the st-member corrections read
// off the internal adjacency masks. The count (graph.CommonNeighbors) tests
// the shorter row against the longer row's hub bitset row when it has one,
// gallops once the longer row is 16 times the shorter, and otherwise merges
// the two linearly. Crawl-style clients take the generic merge instead,
// which charges their Neighbors fetches honestly.
func (s *spaceD) count3(st State, adj AdjMask, xi int) int32 {
	ia, ib := 0, 1
	switch xi {
	case 0:
		ia, ib = 1, 2
	case 1:
		ia, ib = 0, 2
	}
	a, b := st.Node(ia), st.Node(ib)
	common := int32(s.cc.CommonNeighborCount(a, b))
	xA := adj[xi]&(1<<uint(ia)) != 0 // dropped node ~ a
	xB := adj[xi]&(1<<uint(ib)) != 0 // dropped node ~ b
	if adj[ia]&(1<<uint(ib)) != 0 {
		// rem connected: every union member extends it. Union size minus the
		// st members inside it (a and b are, being mutual neighbors; the
		// dropped node is iff it neighbors either).
		cnt := int32(s.c.Degree(a)) + int32(s.c.Degree(b)) - common - 2
		if xA || xB {
			cnt--
		}
		return cnt
	}
	// rem disconnected: the candidate must bridge a and b, i.e. lie in the
	// intersection; only the dropped node can be an st member there.
	if xA && xB {
		return common - 1
	}
	return common
}

// nthNeighbor is the transition: it returns the i-th neighbor of st in the
// canonical order together with that neighbor's record.
func (s *spaceD) nthNeighbor(st State, fi stateInfo, i int32) (State, stateInfo) {
	next, xi, mask := s.pick(st, fi, i)
	return next, s.derive(st, fi, xi, next, mask)
}

// pick returns the i-th neighbor of st in the canonical order, the index xi
// of the st node it drops, and the new node's membership in the retained
// rows (bit p set iff it neighbors the p-th retained node). The group counts
// locate the dropped node, so only that group's rows are read.
func (s *spaceD) pick(st State, fi stateInfo, i int32) (next State, xi int, mask uint8) {
	for xi := 0; xi < st.Len(); xi++ {
		if i < fi.cnt[xi] {
			var g groupScan
			g.prepare(s.c, st, xi, fi.adj)
			y, mask := g.nth(i, fi.cnt[xi], s.cc)
			return stateInsert(g.rem[:g.n], y), xi, mask
		}
		i -= fi.cnt[xi]
	}
	panic("walk: neighbor index out of range")
}

// derive builds the record of next, the neighbor of st that drops st's node
// xi (call it x) for a new node y with the given membership mask, from st's
// record fi:
//
//   - the retained nodes' mutual adjacency is fi's, re-indexed to their
//     positions in next, and y's adjacency to each is its mask bit;
//   - the group of next that drops y counts what st's group xi counts. Both
//     are groups of the same retained set rem, whose candidates C(rem) are
//     the nodes z outside rem with rem ∪ {z} connected. x and y are both in
//     C(rem), since st and next are connected, and each state excludes from
//     its group exactly the one of them it holds, so both counts are
//     |C(rem)| − 1;
//   - only the other d-1 groups are counted (countGroup).
//
// No HasEdge is issued.
func (s *spaceD) derive(st State, fi stateInfo, xi int, next State, mask uint8) stateInfo {
	d := st.Len()
	// from[j] is the st index of next's j-th node; y sits at yi. Walking next
	// in order meets the retained nodes in st order, skipping x.
	var from [MaxD]int
	yi := 0
	for j, si := 0, 0; j < d; j++ {
		if si == xi {
			si++
		}
		if si < d && next.Node(j) == st.Node(si) {
			from[j] = si
			si++
		} else {
			yi = j
		}
	}
	var nf stateInfo
	for j := 0; j < d; j++ {
		if j == yi {
			continue
		}
		// next's j-th node is the retained node at position p of the group.
		p := j
		if j > yi {
			p--
		}
		if mask&(1<<uint(p)) != 0 {
			nf.adj[j] |= 1 << uint(yi)
			nf.adj[yi] |= 1 << uint(j)
		}
		for k := j + 1; k < d; k++ {
			if k != yi && fi.adj[from[j]]&(1<<uint(from[k])) != 0 {
				nf.adj[j] |= 1 << uint(k)
				nf.adj[k] |= 1 << uint(j)
			}
		}
	}
	for g := 0; g < d; g++ {
		if g == yi {
			nf.cnt[g] = fi.cnt[xi]
		} else {
			nf.cnt[g] = s.countGroup(next, nf.adj, g)
		}
		nf.deg += nf.cnt[g]
	}
	return nf
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

// nextNeighbor advances the merge to the next connected candidate that is
// not one of st's members — the group's next G(d) neighbor — returning it
// with its membership mask, or (_, 0, false) when the group is exhausted.
func (g *groupScan) nextNeighbor() (y int32, mask uint8, ok bool) {
	for {
		y, mask, ok = g.next()
		if !ok || !g.st.Contains(y) && g.connected(mask) {
			return y, mask, ok
		}
	}
}

// count scans the whole group and returns the number of connected candidates
// — the degree contribution of this dropped node. No states are built.
func (g *groupScan) count() int32 {
	var cnt int32
	for {
		if _, _, ok := g.nextNeighbor(); !ok {
			return cnt
		}
		cnt++
	}
}

// nth scans to the r-th (0-based) connected candidate of the group, whose
// size is n, and returns it with its membership mask. r must be below n. cc
// is the client's CommonCounter capability, nil on crawl clients.
func (g *groupScan) nth(r, n int32, cc access.CommonCounter) (y int32, mask uint8) {
	if g.n == 2 {
		// d = 3: with one rem component any candidate of either row
		// qualifies, with two the candidate must sit in both. The longer row
		// (the second on a tie) is selectNth's long row.
		var hub graph.HubRow
		if cc != nil {
			long := g.rem[1]
			if len(g.rows[0]) > len(g.rows[1]) {
				long = g.rem[0]
			}
			hub = cc.HubRow(long)
		}
		return selectNth(g.rows[0], g.rows[1], hub, g.st, g.nc == 2, int(r), int(n))
	}
	for ; ; r-- {
		y, mask, ok := g.nextNeighbor()
		if !ok {
			panic("walk: group exhausted before the selected neighbor")
		}
		if r == 0 {
			return y, mask
		}
	}
}

// Membership bits of a selected element: in the first row, in the second.
const (
	inA uint8 = 1 << iota
	inB
)

// selectNth returns the r-th (0-based, ascending) element y of (a ∪ b) \ st —
// of (a ∩ b) \ st when both is set — for sorted rows a and b, with y's
// membership (inA, inB). n is that set's size; r must be below it. hub is
// the hub row of the longer row's node (b's on a tie), or zero when that
// node owns none. Only the shorter row is iterated. Between two consecutive
// short-row elements the longer row contributes a run whose candidate count
// is a cursor difference, so reaching the drawn index costs one cursor
// lookup per short-row element instead of a merge step per element of a hub
// row; st's members are excluded by their positions inside a run, not by a
// test per element. When hub is set a cursor is a rank off its directory
// (HubRow.Rank: one load and one popcount) and a short-row element's
// membership in the long row is its bit; otherwise a cursor is a gallop,
// O(log(max/min)) comparisons (about two with rows of similar length), and
// membership a load at the cursor. The scan starts from the end nearer r:
// from the top, y is the (n-1-r)-th element counting down.
func selectNth(a, b []int32, hub graph.HubRow, st State, both bool, r, n int) (int32, uint8) {
	swapped := len(a) > len(b)
	if swapped {
		a, b = b, a
	}
	var y int32
	var in uint8
	if 2*r >= n {
		y, in = selectDown(a, b, hub, st, both, n-1-r)
	} else {
		y, in = selectUp(a, b, hub, st, both, r)
	}
	if swapped {
		in = in>>1 | in<<1&inB
	}
	return y, in
}

// selectUp is selectNth counting up from the bottom: it returns the r-th
// smallest element. A run element lies in b only; an element of a lies in b
// iff its cursor hit it.
func selectUp(a, b []int32, hub graph.HubRow, st State, both bool, r int) (int32, uint8) {
	lo, mi := 0, 0 // cursors into b and into st's ascending members
	for i := 0; i <= len(a); i++ {
		// b[lo:hi) is the run of long-row elements between a[i-1] and s (past
		// a's end, b's tail); hit reports b[hi] == s. No node ID reaches
		// MaxInt32. b's elements below lo are at most a[i-1], so s's rank is
		// its cursor.
		s, hi, hit := int32(math.MaxInt32), len(b), false
		if i < len(a) {
			s = a[i]
			if hub.IsZero() {
				hi = lo + graph.GallopSearch(b[lo:], s)
				hit = hi < len(b) && b[hi] == s
			} else {
				hi, hit = hub.Rank(s)
			}
		}
		if !both {
			for ; mi < st.Len() && st.Node(mi) < s; mi++ {
				// A member inside the run splits it; the part below the
				// member is all candidates. A member's rank falls below lo
				// only when it is a[i-1], which is not in the run.
				m := st.Node(mi)
				var q int
				var in bool
				if hub.IsZero() {
					q = lo + graph.GallopSearch(b[lo:hi], m)
					in = q < hi && b[q] == m
				} else {
					q, in = hub.Rank(m)
					in = in && q >= lo
				}
				if in {
					if r < q-lo {
						return b[lo+r], inB
					}
					r -= q - lo
					lo = q + 1
				}
			}
			if r < hi-lo {
				return b[lo+r], inB
			}
			r -= hi - lo
		}
		if i == len(a) {
			break
		}
		lo = hi
		in := inA // and in b iff the cursor hit s
		if hit {
			lo++
			in |= inB
		}
		if both && in != inA|inB || st.Contains(s) {
			continue
		}
		if r == 0 {
			return s, in
		}
		r--
	}
	panic("walk: group exhausted before the selected neighbor")
}

// selectDown is selectUp's mirror, counting down from the top: it returns
// the r-th largest element.
func selectDown(a, b []int32, hub graph.HubRow, st State, both bool, r int) (int32, uint8) {
	hi, mi := len(b), st.Len()-1 // cursors into b and into st's members, from the top
	for i := len(a) - 1; i >= -1; i-- {
		// b[lo:hi) is the run of long-row elements between s and a[i+1]
		// (below a's start, b's head); hit reports b[lo-1] == s. No node ID
		// is negative. b's elements from hi on are at least a[i+1], so the
		// count of b's elements up to s is its cursor.
		s, lo, hit := int32(-1), 0, false
		if i >= 0 {
			s = a[i]
			if hub.IsZero() {
				lo = gallopBack(b[:hi], s)
				hit = lo > 0 && b[lo-1] == s
			} else if lo, hit = hub.Rank(s); hit {
				lo++
			}
		}
		if !both {
			for ; mi >= 0 && st.Node(mi) > s; mi-- {
				// A member inside the run splits it; the part above the
				// member is all candidates. A member's count passes hi only
				// when it is a[i+1], which is not in the run.
				m := st.Node(mi)
				var q int
				var in bool
				if hub.IsZero() {
					q = lo + gallopBack(b[lo:hi], m)
					in = q > lo && b[q-1] == m
				} else {
					q, in = hub.Rank(m)
					q++
					in = in && q <= hi
				}
				if in {
					if r < hi-q {
						return b[hi-1-r], inB
					}
					r -= hi - q
					hi = q - 1
				}
			}
			if r < hi-lo {
				return b[hi-1-r], inB
			}
			r -= hi - lo
		}
		if i < 0 {
			break
		}
		hi = lo
		in := inA // and in b iff the cursor hit s
		if hit {
			hi--
			in |= inB
		}
		if both && in != inA|inB || st.Contains(s) {
			continue
		}
		if r == 0 {
			return s, in
		}
		r--
	}
	panic("walk: group exhausted before the selected neighbor")
}

// gallopBack returns the first index of sorted b whose element exceeds x,
// searching from b's end: graph.GallopSearch's mirror, O(log of the distance
// from the end).
func gallopBack(b []int32, x int32) int {
	n := len(b)
	if n == 0 || b[n-1] <= x {
		return n
	}
	// b[n-1-step/2] > x throughout; stop once b[n-1-step] <= x.
	step := 1
	for step < n && b[n-1-step] > x {
		step <<= 1
	}
	lo, hi := max(n-1-step, 0), n-1-step>>1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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
