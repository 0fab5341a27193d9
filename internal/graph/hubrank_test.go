package graph_test

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestHubRankMatchesRows checks every hub row's rank directory on a
// Holme–Kim graph built through each construction path that builds the hub
// index: Builder.Build, LargestComponent, a v1 image read from memory, a v1
// file mapped and a v2 file opened. For every hub and every node x, Rank(x)
// must be x's sort.Search index in the hub's Neighbors row, and its bit
// HasEdge's answer. The built graph's rows are 48 words wide, an even
// number; the component's are 47, so their last pair of words has one.
func TestHubRankMatchesRows(t *testing.T) {
	const n = 3000
	hk := gen.HolmeKim(n, 4, 0.5, 41)
	b := graph.NewBuilder(n + 64)
	hk.Edges(func(u, v int32) bool {
		b.AddEdge(u, v)
		return true
	})
	for v := int32(n); v < n+63; v++ {
		b.AddEdge(v, v+1) // a second component: a 64-node path
	}
	built := b.Build()
	lcc, _ := graph.LargestComponent(built)
	if lcc.NumNodes() != n {
		t.Fatalf("largest component has %d nodes, want %d", lcc.NumNodes(), n)
	}
	var image bytes.Buffer
	if err := graph.WriteBinary(&image, built); err != nil {
		t.Fatal(err)
	}
	fromImage, err := graph.FromImage(image.Bytes(), graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "hk.gcsr"), filepath.Join(dir, "hk.v2.gcsr")
	if err := graph.Save(v1, built); err != nil {
		t.Fatal(err)
	}
	if err := graph.SaveOpts(v2, built, graph.SaveOptions{Version: 2}); err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	blocks, err := graph.OpenMappedOpts(v2, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer blocks.Close()
	if _, ok := blocks.BlockCacheStats(); !ok {
		t.Fatal("the v2 file did not open block-compressed")
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"built", built}, {"lcc", lcc}, {"image", fromImage}, {"mapped", mapped}, {"v2", blocks}} {
		g, hubs := c.g, 0
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			h := g.HubRow(v)
			if h.IsZero() {
				continue
			}
			hubs++
			row := g.Neighbors(v)
			for x := int32(0); x < int32(g.NumNodes()); x++ {
				below, in := h.Rank(x)
				want := sort.Search(len(row), func(i int) bool { return row[i] >= x })
				if below != want || in != g.HasEdge(v, x) {
					t.Fatalf("%s: hub %d, node %d: Rank = %d, %v; want %d, %v",
						c.name, v, x, below, in, want, g.HasEdge(v, x))
				}
			}
		}
		if hubs < 2 {
			t.Fatalf("%s: %d hub rows; the test needs several", c.name, hubs)
		}
	}
}
