package graphlet

import (
	"fmt"
	"testing"
)

func TestCatalogSizes(t *testing.T) {
	want := map[int]int{3: 2, 4: 6, 5: 21}
	for k, n := range want {
		if got := Count(k); got != n {
			t.Errorf("Count(%d) = %d, want %d", k, got, n)
		}
	}
}

// canonical is the adjacency code of g's catalog labeling: its canonical
// code, which the catalog builds g from.
func canonical(g Graphlet) uint16 {
	return CodeOf(g.K, func(i, j int) bool { return g.Adj[i][j] })
}

func TestCatalogIDsAndSanity(t *testing.T) {
	for k := 3; k <= 5; k++ {
		seen := map[uint16]bool{}
		for i, g := range Catalog(k) {
			if g.ID != i+1 {
				t.Errorf("k=%d index %d has ID %d", k, i, g.ID)
			}
			if g.K != k {
				t.Errorf("k=%d id=%d has K=%d", k, g.ID, g.K)
			}
			code := canonical(g)
			if seen[code] {
				t.Errorf("k=%d id=%d duplicate canonical code %d", k, g.ID, code)
			}
			seen[code] = true
			if g.Edges < k-1 || g.Edges > k*(k-1)/2 {
				t.Errorf("k=%d id=%d edge count %d out of range", k, g.ID, g.Edges)
			}
			sum := 0
			for _, d := range g.DegSeq {
				sum += d
			}
			if sum != 2*g.Edges {
				t.Errorf("k=%d id=%d degree sum %d != 2*edges %d", k, g.ID, sum, 2*g.Edges)
			}
		}
	}
}

// TestAlphaTable2 checks the computed α against the paper's Table 2
// (3- and 4-node graphlets under SRW(1..3)).
func TestAlphaTable2(t *testing.T) {
	for d := 1; d <= 3; d++ {
		for i, half := range PaperTable2ThreeAlpha[d] {
			if got := Alpha(3, d, i+1); got != half {
				t.Errorf("alpha(k=3, d=%d, g3_%d) = %d, want %d", d, i+1, got, half)
			}
		}
	}
	for d := 1; d <= 3; d++ {
		for i, half := range PaperTable2Four[d] {
			if got := Alpha(4, d, i+1); got != 2*half {
				t.Errorf("alpha(k=4, d=%d, g4_%d) = %d, want %d", d, i+1, got, 2*half)
			}
		}
	}
	// d = k = 4: l = 1, α = 1 for every graphlet.
	for i := 1; i <= 6; i++ {
		if got := Alpha(4, 4, i); got != 1 {
			t.Errorf("alpha(k=4, d=4, g4_%d) = %d, want 1", i, got)
		}
	}
}

// TestAlphaTable3 checks the computed α against the paper's Table 3
// (all 21 5-node graphlets under SRW(1..4)). Because the catalog order is
// derived from this very table, the test would fail loudly at init (panic)
// if the matching were not a bijection; here we re-verify the values.
func TestAlphaTable3(t *testing.T) {
	errata := map[int]bool{}
	for _, id := range Table3SRW4Errata {
		errata[id] = true
	}
	for d := 1; d <= 4; d++ {
		for i, half := range PaperTable3Five[d] {
			want := 2 * half
			if d == 4 && errata[i+1] {
				// Published value is 2x the Appendix-B closed form; see
				// the PaperTable3Five doc comment.
				want = half
			}
			if got := Alpha(5, d, i+1); got != want {
				t.Errorf("alpha(k=5, d=%d, g5_%d) = %d, want %d", d, i+1, got, want)
			}
		}
	}
	for i := 1; i <= 21; i++ {
		if got := Alpha(5, 5, i); got != 1 {
			t.Errorf("alpha(k=5, d=5, g5_%d) = %d, want 1", i, got)
		}
	}
}

// TestAlphaSRW1IsHamiltonPaths verifies the paper's observation that α under
// SRW(1) is twice the number of undirected Hamiltonian paths.
func TestAlphaSRW1IsHamiltonPaths(t *testing.T) {
	// Known Hamiltonian path counts.
	cases := []struct {
		k, id int
		paths int64
	}{
		{3, 1, 1}, {3, 2, 3},
		{4, 1, 1}, {4, 2, 0}, {4, 3, 4}, {4, 6, 12},
		{5, 7, 5},   // 5-cycle
		{5, 21, 60}, // 5-clique: 5!/2
	}
	for _, c := range cases {
		if got := ByID(c.k, c.id).Alpha[1]; got != 2*c.paths {
			t.Errorf("alpha[d=1](g%d_%d) = %d, want 2 × %d Hamiltonian paths", c.k, c.id, got, c.paths)
		}
	}
}

// TestAlphaPSRWFormula verifies the closed form for d = k-1 (PSRW):
// α = |S|·(|S|-1) where S is the set of connected (k-1)-node subgraphs,
// since any two (k-1)-subsets of a k-set share k-2 nodes.
func TestAlphaPSRWFormula(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for _, g := range Catalog(k) {
			s := int64(len(connectedSubsets(k, k-1, func(i, j int) bool { return g.Adj[i][j] })))
			want := s * (s - 1)
			if got := g.Alpha[k-1]; got != want {
				t.Errorf("k=%d id=%d: alpha[d=k-1] = %d, want |S|(|S|-1) = %d", k, g.ID, got, want)
			}
		}
	}
}

func TestClassifyCodeAllCodes(t *testing.T) {
	for k := 3; k <= 5; k++ {
		nb := k * (k - 1) / 2
		connected, disconnected := 0, 0
		for code := 0; code < 1<<uint(nb); code++ {
			idx := ClassifyCode(k, uint16(code))
			if idx == -1 {
				disconnected++
				continue
			}
			connected++
			if idx < 0 || idx >= Count(k) {
				t.Fatalf("k=%d code=%d: bad class %d", k, code, idx)
			}
		}
		if connected+disconnected != 1<<uint(nb) {
			t.Fatalf("k=%d: classification table incomplete", k)
		}
		if connected == 0 {
			t.Fatalf("k=%d: no connected codes", k)
		}
	}
}

// TestClassifyMatchesCanonical verifies that every code classifies to the
// graphlet with the same canonical code.
func TestClassifyMatchesCanonical(t *testing.T) {
	for k := 3; k <= 5; k++ {
		info := ki(k)
		for code := 0; code < len(info.classify); code++ {
			idx := info.classify[code]
			if idx < 0 {
				continue
			}
			cc := canonicalCode(info, uint16(code))
			if want := canonical(info.catalog[idx]); cc != want {
				t.Fatalf("k=%d code=%d: classified as %s but canonical %d != %d",
					k, code, info.catalog[idx].Name, cc, want)
			}
		}
	}
}

// TestClassifyInvariantUnderRelabeling: classification must be identical for
// all permuted encodings of the same subgraph.
func TestClassifyInvariantUnderRelabeling(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for _, g := range Catalog(k) {
			want := g.ID - 1
			for _, perm := range permutations(k) {
				code := CodeOf(k, func(i, j int) bool { return g.Adj[perm[i]][perm[j]] })
				if got := ClassifyCode(k, code); got != want {
					t.Fatalf("k=%d %s perm %v: classified %d, want %d", k, g.Name, perm, got, want)
				}
			}
		}
	}
}

func TestNamesUniqueAndNonEmpty(t *testing.T) {
	for k := 3; k <= 5; k++ {
		seen := map[string]bool{}
		for _, g := range Catalog(k) {
			if g.Name == "" {
				t.Errorf("k=%d id=%d has empty name", k, g.ID)
			}
			if seen[g.Name] {
				t.Errorf("k=%d duplicate name %q", k, g.Name)
			}
			seen[g.Name] = true
		}
	}
}

func TestKnownNames(t *testing.T) {
	cases := map[[2]int]string{
		{3, 1}: "wedge", {3, 2}: "triangle",
		{4, 1}: "4-path", {4, 6}: "4-clique",
		{5, 1}: "5-path", {5, 7}: "5-cycle", {5, 21}: "5-clique",
	}
	for key, want := range cases {
		if got := ByID(key[0], key[1]).Name; got != want {
			t.Errorf("name(g%d_%d) = %q, want %q", key[0], key[1], got, want)
		}
	}
}

// TestChainCoverage: every chain enumerated must cover all k nodes and have
// consecutive states sharing exactly d-1 nodes.
func TestChainCoverage(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for _, g := range Catalog(k) {
			hasEdge := func(i, j int) bool { return g.Adj[i][j] }
			for d := 1; d < k; d++ {
				l := k - d + 1
				EnumerateChains(k, d, hasEdge, func(chain []uint8) bool {
					if len(chain) != l {
						t.Fatalf("k=%d d=%d %s: chain length %d != %d", k, d, g.Name, len(chain), l)
					}
					var union uint8
					for i, m := range chain {
						union |= m
						if i > 0 {
							shared := popcount8(chain[i-1] & m)
							if d == 1 {
								if shared != 0 {
									t.Fatalf("d=1 chain repeats node")
								}
							} else if shared != d-1 {
								t.Fatalf("k=%d d=%d %s: consecutive states share %d nodes", k, d, g.Name, shared)
							}
						}
					}
					if popcount8(union) != k {
						t.Fatalf("k=%d d=%d %s: chain covers %d nodes", k, d, g.Name, popcount8(union))
					}
					return true
				})
			}
		}
	}
}

func popcount8(x uint8) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestAlphaZeroCases(t *testing.T) {
	// Under SRW(1), graphlets without a Hamiltonian path have α = 0:
	// 3-star (g4_2) and the three 5-node cases the paper calls out
	// (g5_2, g5_3, g5_6).
	zero := [][2]int{{4, 2}, {5, 2}, {5, 3}, {5, 6}}
	for _, z := range zero {
		if got := Alpha(z[0], 1, z[1]); got != 0 {
			t.Errorf("alpha(k=%d, d=1, id=%d) = %d, want 0", z[0], z[1], got)
		}
	}
}

func ExampleCatalog() {
	for _, g := range Catalog(3) {
		fmt.Printf("g3_%d %s edges=%d\n", g.ID, g.Name, g.Edges)
	}
	// Output:
	// g3_1 wedge edges=2
	// g3_2 triangle edges=3
}

// TestChainTableShape: for every (k, d) with interior states, each connected
// code's table row holds exactly α chains of l-2 masks and each disconnected
// code's row is empty (so the estimator's zero-probability error still fires
// for it). The order within a row is pinned, to the bit, by internal/core's
// TestSamplingProbabilityTableMatchesEnumerator.
func TestChainTableShape(t *testing.T) {
	for k := 3; k <= MaxK; k++ {
		for d := 1; k-d+1 > 2; d++ {
			tab := Chains(k, d)
			if tab.Interior != k-d-1 {
				t.Fatalf("k=%d d=%d: Interior = %d, want %d", k, d, tab.Interior, k-d-1)
			}
			for code := range ki(k).classify {
				got := tab.Interiors(uint16(code))
				typ := ClassifyCode(k, uint16(code))
				if typ < 0 {
					if len(got) != 0 {
						t.Errorf("k=%d d=%d disconnected code %#x has %d masks", k, d, code, len(got))
					}
					continue
				}
				if want := int(Alpha(k, d, typ+1)) * tab.Interior; len(got) != want {
					t.Errorf("k=%d d=%d code %#x (type %d): %d masks, want α·(l-2) = %d", k, d, code, typ+1, len(got), want)
				}
			}
		}
	}
}
