package graph

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func k4() *Graph {
	return FromEdgeList(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 2) // self loop, dropped
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := FromEdgeList(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	wantDeg := []int{3, 1, 1, 2, 1}
	for v, w := range wantDeg {
		if got := g.Degree(int32(v)); got != w {
			t.Errorf("Degree(%d) = %d, want %d", v, got, w)
		}
	}
	n := g.Neighbors(0)
	want := []int32{1, 2, 3}
	if len(n) != len(want) {
		t.Fatalf("Neighbors(0) = %v", n)
	}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", n, want)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := k4()
	for u := int32(0); u < 4; u++ {
		for v := int32(0); v < 4; v++ {
			want := u != v
			if got := g.HasEdge(u, v); got != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := FromEdgeList(5, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	cases := []struct {
		u, v int32
		want int
	}{
		{0, 3, 2}, // 1 and 2
		{1, 2, 2}, // 0 and 3
		{0, 4, 0},
		{1, 4, 1}, // 3
	}
	for _, c := range cases {
		if got := g.CommonNeighbors(c.u, c.v); got != c.want {
			t.Errorf("CommonNeighbors(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
		var buf []int32
		buf = g.CommonNeighborsInto(buf[:0], c.u, c.v)
		if len(buf) != c.want {
			t.Errorf("CommonNeighborsInto(%d,%d) returned %d items, want %d", c.u, c.v, len(buf), c.want)
		}
	}
}

func TestRandomNeighbor(t *testing.T) {
	g := FromEdgeList(3, [][2]int32{{0, 1}})
	rng := rand.New(rand.NewSource(1))
	if _, ok := g.RandomNeighbor(2, rng); ok {
		t.Error("isolated node returned a neighbor")
	}
	v, ok := g.RandomNeighbor(0, rng)
	if !ok || v != 1 {
		t.Errorf("RandomNeighbor(0) = %d,%v", v, ok)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := k4()
	var got [][2]int32
	g.Edges(func(u, v int32) bool {
		got = append(got, [2]int32{u, v})
		return true
	})
	if len(got) != 6 {
		t.Fatalf("iterated %d edges, want 6", len(got))
	}
	for _, e := range got {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
	}
	// Early stop.
	n := 0
	g.Edges(func(u, v int32) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop iterated %d", n)
	}
}

func TestLargestComponent(t *testing.T) {
	// Two components: triangle {0,1,2} and edge {3,4}; plus isolated 5.
	g := FromEdgeList(6, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	lcc, toOld := LargestComponent(g)
	if lcc.NumNodes() != 3 || lcc.NumEdges() != 3 {
		t.Fatalf("LCC = %v", lcc)
	}
	if len(toOld) != 3 {
		t.Fatalf("toOld = %v", toOld)
	}
	old := []int{int(toOld[0]), int(toOld[1]), int(toOld[2])}
	sort.Ints(old)
	for i, v := range []int{0, 1, 2} {
		if old[i] != v {
			t.Fatalf("toOld maps to %v", old)
		}
	}
	if !IsConnected(lcc) {
		t.Error("LCC not connected")
	}
	if NumComponents(g) != 3 {
		t.Errorf("NumComponents = %d, want 3", NumComponents(g))
	}
}

func TestIsConnectedEdgeCases(t *testing.T) {
	if !IsConnected(NewBuilder(0).Build()) {
		t.Error("empty graph should be connected")
	}
	if !IsConnected(NewBuilder(1).Build()) {
		t.Error("single node should be connected")
	}
	if IsConnected(NewBuilder(2).Build()) {
		t.Error("two isolated nodes should not be connected")
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	in := "# comment\n% other comment\n0 1\n1 2\n\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %v", g)
	}
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g, g2)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("expected error for single-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("expected error for non-numeric fields")
	}
}

// Property: a graph built from any random edge list validates and has
// symmetric HasEdge consistent with the deduplicated input.
func TestBuildProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBuilder(0)
		want := map[[2]int32]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			u := int32(raw[i] % 64)
			v := int32(raw[i+1] % 64)
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[[2]int32{u, v}] = true
			}
		}
		g := b.Build()
		if err := Validate(g); err != nil {
			return false
		}
		if int(g.NumEdges()) != len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LargestComponent always returns a connected graph whose size is
// at least the size of any other component.
func TestLCCProperty(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		b := NewBuilder(1)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%50), int32(raw[i+1]%50))
		}
		g := b.Build()
		lcc, _ := LargestComponent(g)
		return IsConnected(lcc) && lcc.NumNodes() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxDegreeAndHistogram(t *testing.T) {
	g := FromEdgeList(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if g.MaxDegree() != 4 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	h := make(map[int]int)
	for v := int32(0); v < 5; v++ {
		h[g.Degree(v)]++
	}
	if h[1] != 4 || h[4] != 1 {
		t.Errorf("histogram = %v", h)
	}
	// Empty graph and isolated nodes: cached value stays consistent.
	if g := NewBuilder(0).Build(); g.MaxDegree() != 0 {
		t.Errorf("empty graph MaxDegree = %d", g.MaxDegree())
	}
	if g := NewBuilder(3).Build(); g.MaxDegree() != 0 {
		t.Errorf("edgeless graph MaxDegree = %d", g.MaxDegree())
	}
	// The cache survives deduplication and LCC extraction (both rebuild
	// through Builder.Build; Validate cross-checks cached vs scanned).
	b := NewBuilder(0)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {1, 3}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	dup := b.Build()
	if err := Validate(dup); err != nil {
		t.Fatal(err)
	}
	lcc, _ := LargestComponent(dup)
	if err := Validate(lcc); err != nil {
		t.Fatal(err)
	}
	if lcc.MaxDegree() != 3 {
		t.Errorf("LCC MaxDegree = %d, want 3", lcc.MaxDegree())
	}
}
