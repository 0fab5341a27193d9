package graph

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// load reads a .gcsr file into memory and builds the graph over that image:
// the open path of hosts without mmap (mmap_other.go).
func load(path string) (*Graph, error) {
	g, _, err := loadImage(path, OpenOptions{}, false)
	return g, err
}

// connected reports whether g has at most one component.
func connected(g *Graph) bool {
	_, sizes := components(g)
	return len(sizes) <= 1
}

// IsHub reports whether v owns an adjacency bitset row (O(1) HasEdge
// probes). It is declared in a test file, for this package's tests and its
// external benchmarks.
func (g *Graph) IsHub(v int32) bool {
	return g.hubIdx != nil && g.hubIdx[v] >= 0
}

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
	if !connected(lcc) {
		t.Error("LCC not connected")
	}
	if _, sizes := components(g); len(sizes) != 3 {
		t.Errorf("%d components, want 3", len(sizes))
	}
}

func TestIsConnectedEdgeCases(t *testing.T) {
	if !connected(NewBuilder(0).Build()) {
		t.Error("empty graph should be connected")
	}
	if !connected(NewBuilder(1).Build()) {
		t.Error("single node should be connected")
	}
	if connected(NewBuilder(2).Build()) {
		t.Error("two isolated nodes should not be connected")
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	in := "# comment\n% other comment\n0 1\n1 2\n\n2 0\n"
	g, err := readEdgeList(strings.NewReader(in), false)
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
	g2, err := readEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g, g2)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := readEdgeList(strings.NewReader("0\n"), false); err == nil {
		t.Error("expected error for single-field line")
	}
	if _, err := readEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Error("expected error for non-numeric fields")
	}
}

// referenceBuild builds b by one global sort and dedup of its edge list, the
// reference Build must match byte for byte. It sorts and deduplicates
// b.edges in place.
func referenceBuild(b *Builder) *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	// Deduplicate in place.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	b.edges = uniq

	n := int(b.n)
	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	off := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	adj := make([]int32, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for _, e := range b.edges {
		adj[cursor[e.u]] = e.v
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	g := &Graph{off: off, adj: adj, m: int64(len(b.edges))}
	// Edges were added in (u, v) sorted order per endpoint bucket only for u;
	// the v-side insertions can be out of order, so sort each list.
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		s := adj[lo:hi]
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		}
		if d := int(hi - lo); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	g.buildHubIndex()
	return g
}

// v1Image returns g's .gcsr version-1 bytes.
func v1Image(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildMatchesReference builds b twice and requires each graph to validate
// and to equal referenceBuild's over the same edges: the same .gcsr image,
// MaxDegree, NumEdges and hub index. The second Build checks the Builder stays reusable.
func buildMatchesReference(t testing.TB, b *Builder) error {
	ref := referenceBuild(&Builder{n: b.n, edges: slices.Clone(b.edges)})
	want := v1Image(t, ref)
	for i := range 2 {
		g := b.Build()
		if err := Validate(g); err != nil {
			return fmt.Errorf("build %d: %v", i+1, err)
		}
		if g.MaxDegree() != ref.MaxDegree() || g.NumEdges() != ref.NumEdges() {
			return fmt.Errorf("build %d: max degree %d, %d edges; reference %d, %d",
				i+1, g.MaxDegree(), g.NumEdges(), ref.MaxDegree(), ref.NumEdges())
		}
		if !bytes.Equal(v1Image(t, g), want) {
			return fmt.Errorf("build %d: .gcsr image differs from the reference's", i+1)
		}
		if !slices.Equal(g.hubIdx, ref.hubIdx) || !slices.Equal(g.hubRows, ref.hubRows) || !slices.Equal(g.hubRank, ref.hubRank) {
			return fmt.Errorf("build %d: hub index differs from the reference's", i+1)
		}
	}
	return nil
}

// Property: a graph built from any edge list validates, has symmetric
// HasEdge consistent with the deduplicated input, and equals referenceBuild's
// graph to the byte — on a first and a second Build of one Builder, whatever
// NewBuilder's n, with duplicate and reversed pairs and self loops.
func TestBuildProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]int32
	}{
		{"empty", 0, nil},
		{"isolated nodes only", 5, nil},
		{"duplicate and reversed pairs", 0, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 2}, {3, 0}, {0, 3}, {3, 0}}},
		{"self loops", 5, [][2]int32{{0, 0}, {1, 1}, {1, 2}, {2, 2}, {4, 4}, {2, 1}}},
		{"endpoints beyond n", 2, [][2]int32{{0, 5}, {7, 3}, {1, 9}, {9, 1}, {12, 12}}},
		{"hub with duplicate spokes", 1, func() [][2]int32 {
			var es [][2]int32
			for v := int32(1); v <= 100; v++ {
				es = append(es, [2]int32{v, 0}, [2]int32{0, v}, [2]int32{v, v%7 + 1})
			}
			return es
		}()},
	} {
		b := NewBuilder(tc.n)
		for _, e := range tc.edges {
			b.AddEdge(e[0], e[1])
		}
		if err := buildMatchesReference(t, b); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}

	f := func(raw []uint16, n0 uint8) bool {
		b := NewBuilder(int(n0 % 80))
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
		if err := buildMatchesReference(t, b); err != nil {
			t.Log(err)
			return false
		}
		g := b.Build()
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

// FuzzBuild: for any AddEdge sequence — duplicate and reversed pairs, self
// loops, endpoints past NewBuilder's n — Build's graph validates and equals
// referenceBuild's to the byte, on a first and a second Build. The first
// input byte is NewBuilder's n; each following pair of bytes is one edge.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder(0)
		if len(data) > 0 {
			b, data = NewBuilder(int(data[0])), data[1:]
		}
		for ; len(data) >= 2; data = data[2:] {
			b.AddEdge(int32(data[0]), int32(data[1]))
		}
		if err := buildMatchesReference(t, b); err != nil {
			t.Fatal(err)
		}
	})
}

// lccViaBuilder rebuilds the component of g that toOld lists through the
// Builder: the reference for LargestComponent's one-pass copy.
func lccViaBuilder(g *Graph, toOld []int32) *Graph {
	newID := make(map[int32]int32, len(toOld))
	for v, old := range toOld {
		newID[old] = int32(v)
	}
	b := NewBuilder(len(toOld))
	g.Edges(func(u, v int32) bool {
		nu, okU := newID[u]
		nv, okV := newID[v]
		if okU && okV {
			b.AddEdge(nu, nv)
		}
		return true
	})
	return b.Build()
}

// Property: LargestComponent always returns a connected graph whose size is
// at least the size of any other component, and whose image equals the
// component rebuilt through the Builder.
func TestLCCProperty(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		b := NewBuilder(1)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%50), int32(raw[i+1]%50))
		}
		g := b.Build()
		lcc, toOld := LargestComponent(g)
		if err := Validate(lcc); err != nil {
			t.Log(err)
			return false
		}
		if !bytes.Equal(v1Image(t, lcc), v1Image(t, lccViaBuilder(g, toOld))) {
			t.Logf("component of %d nodes differs from the Builder's", lcc.NumNodes())
			return false
		}
		return connected(lcc) && lcc.NumNodes() >= 1
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
	// The cache survives deduplication in Builder.Build and LCC extraction
	// (Validate cross-checks cached vs scanned).
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

// CommonNeighborsInto appends the common neighbors of u and v to dst (in
// ascending order) and returns the extended slice: the list form of
// CommonNeighbors, which the tests compare its count against.
func (g *Graph) CommonNeighborsInto(dst []int32, u, v int32) []int32 {
	a, b := g.Neighbors(u), g.Neighbors(v)
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopSkew*len(a) {
		lo := 0
		for _, x := range a {
			lo += GallopSearch(b[lo:], x)
			if lo >= len(b) {
				break
			}
			if b[lo] == x {
				dst = append(dst, x)
				lo++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
