package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The registry must serve identical graphs — and identical estimates — no
// matter whether a dataset arrives as a text edge list or as a packed .gcsr
// file opened through the mmap path.
func TestRegistryGCSRFile(t *testing.T) {
	dir := t.TempDir()
	raw := gen.HolmeKim(600, 3, 0.5, 21)

	txtPath := filepath.Join(dir, "g.txt")
	if err := graph.SaveEdgeList(txtPath, raw); err != nil {
		t.Fatal(err)
	}
	// Pack what the text load path produces (parse, then LCC) — the same
	// pipeline cmd/graphlet-pack runs. ReadEdgeList compacts node IDs by
	// first appearance, so packing must start from the parsed graph.
	parsed, err := graph.LoadEdgeList(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := graph.LargestComponent(parsed)
	gcsrPath := filepath.Join(dir, "g.gcsr")
	if err := graph.Save(gcsrPath, lcc); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.AddFileOpts("text", txtPath, graph.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddFileOpts("packed", gcsrPath, graph.OpenOptions{}); err != nil {
		t.Fatal(err)
	}

	ti, _ := reg.Info("text")
	pi, ok := reg.Info("packed")
	if !ok {
		t.Fatal("packed graph not registered")
	}
	if ti.Source != "file" || pi.Source != "gcsr" {
		t.Errorf("sources = %q, %q; want file, gcsr", ti.Source, pi.Source)
	}
	if ti.Nodes != pi.Nodes || ti.Edges != pi.Edges || ti.MaxDegree != pi.MaxDegree {
		t.Fatalf("graph shape differs between load paths: %+v vs %+v", ti, pi)
	}

	gt, _ := reg.Get("text")
	gp, _ := reg.Get("packed")
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 31, Walkers: 2}
	results := make([]string, 2)
	for i, g := range []*graph.Graph{gt, gp} {
		est, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := est.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		res := multi.Results[4]
		results[i] = fmt.Sprintf("%v|%v|%v", res.Concentration(), res.Weights, res.TypeCounts)
	}
	if results[0] != results[1] {
		t.Errorf("estimates differ between text and gcsr load paths:\n%s\n%s", results[0], results[1])
	}
}

// A .gcsr file holding a disconnected graph still registers its LCC.
func TestRegistryGCSRDisconnected(t *testing.T) {
	b := graph.NewBuilder(0)
	for v := int32(1); v < 80; v++ {
		b.AddEdge(0, v) // star component
	}
	b.AddEdge(100, 101) // stray component
	g := b.Build()
	path := filepath.Join(t.TempDir(), "split.gcsr")
	if err := graph.Save(path, g); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.AddFileOpts("split", path, graph.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	info, _ := reg.Info("split")
	if info.Nodes != 80 || info.Edges != 79 {
		t.Errorf("LCC not extracted: %+v", info)
	}
}

// A registration the registry rejects (duplicate or empty name) must not
// leave the opened file mapped: nothing holds the graph to Close it later.
func TestRegistryRejectedAddReleasesMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "star.gcsr")
	b := graph.NewBuilder(0)
	for v := int32(1); v < 80; v++ {
		b.AddEdge(0, v)
	}
	if err := graph.Save(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("cannot list this process's mappings: %v", err)
		}
		return strings.Count(string(maps), path)
	}
	reg := NewRegistry()
	if err := reg.AddFileOpts("star", path, graph.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
	held := mappings()
	if held == 0 {
		t.Skip("graph files are not mmap'd on this platform")
	}
	for _, name := range []string{"star", "", "star"} {
		if err := reg.AddFileOpts(name, path, graph.OpenOptions{}); err == nil {
			t.Fatalf("AddFileOpts(%q) accepted a duplicate or empty name", name)
		}
	}
	if got := mappings(); got != held {
		t.Errorf("%d mappings of %s after three rejected registrations, want %d", got, path, held)
	}
}
