package graphlet

import (
	"fmt"
	"sort"
)

// Paper tables of α/2 values, used both to order the catalog by paper ID and
// as the ground truth for the reproduction tests of Tables 2 and 3.

// PaperTable2ThreeAlpha holds the full α (not halved) for the 3-node
// graphlets (wedge, triangle) under SRW(1), SRW(2), SRW(3); indexed [d][i],
// d = 1..3, i = paper ID - 1. For d = k = 3 the walk is on G(3) and l = 1:
// each graphlet is its own single state, so α = 1 (the paper prints α/2 =
// 1/2, the fractional row of Table 2).
var PaperTable2ThreeAlpha = map[int][]int64{
	1: {2, 6},
	2: {2, 6},
	3: {1, 1},
}

// PaperTable2Four holds α^4_i/2 for the 4-node graphlets in paper order
// (4-path, 3-star, cycle, tailed-triangle, chordal-cycle, clique) under
// SRW(1), SRW(2), SRW(3).
var PaperTable2Four = map[int][]int64{
	1: {1, 0, 4, 2, 6, 12},
	2: {1, 3, 4, 5, 12, 24},
	3: {1, 3, 6, 3, 6, 6},
}

// PaperTable3Five holds α^5_i/2 for the 21 5-node graphlets in paper order
// under SRW(1)..SRW(4), exactly as printed in Table 3 of the paper.
//
// NOTE (suspected erratum in the paper): the SRW(4) row disagrees with the
// paper's own Appendix B closed form α = |S|·(|S|−1) (S = set of connected
// 4-node induced subgraphs of the graphlet) for exactly the five graphlets in
// Table3SRW4Errata, where the printed value is twice the combinatorially
// correct one (e.g. the banner has |S| = 4, so α/2 = 6, but the table prints
// 12). This repository uses the correct values (ComputedTable3) in the
// estimator — proved unbiased by exact enumeration in internal/core, where
// the printed values put these five types at exactly half their counts — and
// flags the discrepancy when reproducing Table 3.
var PaperTable3Five = map[int][]int64{
	1: {1, 0, 0, 1, 2, 0, 5, 2, 2, 4, 4, 6, 7, 6, 6, 10, 14, 18, 24, 36, 60},
	2: {1, 2, 12, 5, 4, 16, 5, 6, 24, 24, 12, 18, 15, 54, 36, 42, 34, 82, 76, 144, 240},
	3: {1, 5, 24, 8, 5, 24, 5, 16, 30, 24, 16, 63, 26, 63, 30, 43, 63, 63, 90, 90, 90},
	4: {1, 3, 6, 3, 3, 6, 10, 12, 12, 12, 12, 10, 10, 10, 12, 10, 10, 10, 10, 10, 10},
}

// Table3SRW4Errata lists the paper IDs whose printed SRW(4) α/2 in Table 3 is
// exactly twice the value implied by the paper's own Appendix B formula.
var Table3SRW4Errata = []int{8, 9, 10, 11, 15}

// paperOrder returns a permutation order such that tmp[order[i]] is the
// graphlet with paper ID i+1.
func paperOrder(k int, tmp []Graphlet) []int {
	switch k {
	case 3:
		return orderByDescriptors(tmp, [][2]interface{}{
			{2, []int{1, 1, 2}}, // wedge
			{3, []int{2, 2, 2}}, // triangle
		})
	case 4:
		return orderByDescriptors(tmp, [][2]interface{}{
			{3, []int{1, 1, 2, 2}}, // 4-path
			{3, []int{1, 1, 1, 3}}, // 3-star
			{4, []int{2, 2, 2, 2}}, // 4-cycle
			{4, []int{1, 2, 2, 3}}, // tailed triangle
			{5, []int{2, 2, 3, 3}}, // chordal cycle (diamond)
			{6, []int{3, 3, 3, 3}}, // 4-clique
		})
	case 5:
		return orderByAlphaTuples(tmp)
	}
	panic("graphlet: paperOrder: bad k")
}

func orderByDescriptors(tmp []Graphlet, descs [][2]interface{}) []int {
	if len(tmp) != len(descs) {
		panic(fmt.Sprintf("graphlet: catalog size %d != descriptor count %d", len(tmp), len(descs)))
	}
	order := make([]int, len(descs))
	for pi, d := range descs {
		edges := d[0].(int)
		seq := d[1].([]int)
		found := -1
		for ti := range tmp {
			if tmp[ti].Edges == edges && equalInts(tmp[ti].DegSeq, seq) {
				found = ti
				break
			}
		}
		if found < 0 {
			panic(fmt.Sprintf("graphlet: no catalog entry with %d edges and degrees %v", edges, seq))
		}
		order[pi] = found
	}
	return order
}

// orderByAlphaTuples matches each 5-node graphlet's (α_SRW1, α_SRW2, α_SRW3)
// tuple to the corresponding column of the paper's Table 3. All 21 columns
// are distinct already on those three rows, so the matching is a bijection;
// any failure indicates a bug in the α computation and panics at init time.
// The SRW(4) row is not used for matching because of the suspected errata
// documented at PaperTable3Five.
func orderByAlphaTuples(tmp []Graphlet) []int {
	if len(tmp) != 21 {
		panic(fmt.Sprintf("graphlet: expected 21 five-node graphlets, got %d", len(tmp)))
	}
	order := make([]int, 21)
	usedT := make([]bool, 21)
	for pi := 0; pi < 21; pi++ {
		found := -1
		for ti := range tmp {
			if usedT[ti] {
				continue
			}
			match := true
			for d := 1; d <= 3; d++ {
				if tmp[ti].Alpha[d] != 2*PaperTable3Five[d][pi] {
					match = false
					break
				}
			}
			if match {
				found = ti
				break
			}
		}
		if found < 0 {
			panic(fmt.Sprintf("graphlet: no 5-node graphlet matches Table 3 column %d", pi+1))
		}
		usedT[found] = true
		order[pi] = found
	}
	return order
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// graphletName returns the conventional name for g^k_id, falling back to a
// generic label keyed by size, edge count and degree sequence.
func graphletName(k, id int, g *Graphlet) string {
	switch k {
	case 3:
		return [...]string{"wedge", "triangle"}[id-1]
	case 4:
		return [...]string{"4-path", "3-star", "4-cycle", "tailed-triangle", "chordal-cycle", "4-clique"}[id-1]
	case 5:
		if n, ok := fiveNames[nameKey(g)]; ok {
			return n
		}
		return fmt.Sprintf("g5-%d(e=%d,deg=%v)", id, g.Edges, g.DegSeq)
	}
	return fmt.Sprintf("g%d-%d", k, id)
}

// nameKey distinguishes 5-node graphlets by edge count, degree sequence and
// triangle count (the only pair sharing edges+degrees — tadpole vs banner —
// differs in triangles).
func nameKey(g *Graphlet) string {
	tri := 0
	for i := 0; i < g.K; i++ {
		for j := i + 1; j < g.K; j++ {
			for l := j + 1; l < g.K; l++ {
				if g.Adj[i][j] && g.Adj[j][l] && g.Adj[i][l] {
					tri++
				}
			}
		}
	}
	seq := make([]int, len(g.DegSeq))
	copy(seq, g.DegSeq)
	sort.Ints(seq)
	return fmt.Sprintf("e%d-d%v-t%d", g.Edges, seq, tri)
}

// fiveNames holds the conventional names for 5-node graphlets that have one;
// the rest fall back to generic descriptor labels.
var fiveNames = map[string]string{
	"e4-d[1 1 2 2 2]-t0":   "5-path",
	"e4-d[1 1 1 1 4]-t0":   "4-star",
	"e4-d[1 1 1 2 3]-t0":   "fork",
	"e5-d[1 1 2 3 3]-t1":   "bull",
	"e5-d[1 2 2 2 3]-t1":   "tadpole",
	"e5-d[1 2 2 2 3]-t0":   "banner",
	"e5-d[1 1 2 2 4]-t1":   "cricket",
	"e5-d[2 2 2 2 2]-t0":   "5-cycle",
	"e6-d[2 2 2 2 4]-t2":   "bowtie",
	"e6-d[2 2 2 3 3]-t1":   "house",
	"e6-d[1 2 2 3 4]-t2":   "dart",
	"e6-d[1 2 2 3 3]-t1":   "cross",
	"e7-d[1 3 3 3 4]-t4":   "kite",
	"e7-d[2 2 3 3 4]-t3":   "gem",
	"e8-d[3 3 3 3 4]-t4":   "wheel",
	"e9-d[3 3 4 4 4]-t7":   "k5-minus-edge",
	"e10-d[4 4 4 4 4]-t10": "5-clique",
}
