package graphletrw

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// renderEstimate runs a 6000-step estimate of the one-size cfg on g and
// formats it exactly (hex floats): byte-identical, not almost-equal.
func renderEstimate(t *testing.T, g *Graph, cfg Config) string {
	t.Helper()
	multi, err := Estimate(NewClient(g), cfg, 6000)
	if err != nil {
		t.Fatal(err)
	}
	res := multi.Results[cfg.Sizes[0]]
	return fmt.Sprintf("%x|%x|%v|%d|%d",
		res.Concentration(), res.Weights, res.TypeCounts, res.Steps, res.ValidSamples)
}

// The acceptance property of the binary CSR store: an estimation over a
// builder-loaded graph must be byte-identical to the same estimation over
// the .gcsr loaded, mmap'd and misaligned-image graphs — and over the
// block-compressed v2 store, whether its decode cache holds everything or
// thrashes. The walk consumes only adjacency and the seeded RNG, so equal
// graphs must give equal bytes — any divergence means the store (or the
// hub-bitset probe path) changed the topology it serves.
func TestEstimateByteIdenticalAcrossLoadPaths(t *testing.T) {
	raw := gen.HolmeKim(1200, 4, 0.6, 77)
	built, _ := LargestComponent(raw)

	dir := t.TempDir()
	path := filepath.Join(dir, "g.gcsr")
	if err := graph.Save(path, built); err != nil {
		t.Fatal(err)
	}
	// The file read into memory, the open path of hosts without mmap.
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.FromImage(image, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Log("OpenMapped read the file into memory on this platform")
	}
	// The same image one byte off alignment: FromImage cannot alias its
	// arrays and decodes them into heap copies, the one portable branch.
	odd := make([]byte, len(image)+1)[1:]
	copy(odd, image)
	decoded, err := graph.FromImage(odd, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The block-compressed v2 store must serve the identical topology: once
	// through a cache big enough to hold every decoded block, and once
	// through a cache small enough to thrash (evictions mid-walk must never
	// change what a row contains).
	pathV2 := filepath.Join(dir, "g2.gcsr")
	if err := graph.SaveOpts(pathV2, built, graph.SaveOptions{Version: 2, BlockBytes: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	cached, err := graph.OpenMappedOpts(pathV2, graph.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	thrashed, err := graph.OpenMappedOpts(pathV2, graph.OpenOptions{BlockCacheBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer thrashed.Close()

	for _, cfg := range []Config{
		{Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 5},
		{Sizes: []int{4}, D: 2, CSS: true, Seed: 5, Walkers: 4},
		{Sizes: []int{5}, D: 2, CSS: true, Seed: 9},
		// d >= 3: the merge-based G(d) kernel path (counting scans +
		// nth-neighbor partial scans instead of materialized lists).
		{Sizes: []int{4}, D: 3, Seed: 5},
		{Sizes: []int{5}, D: 3, CSS: true, Seed: 7, Walkers: 2},
		{Sizes: []int{5}, D: 4, NB: true, Seed: 7},
	} {
		cfg := cfg
		t.Run(cfg.MethodName(), func(t *testing.T) {
			render := func(g *Graph) string { return renderEstimate(t, g, cfg) }
			want := render(built)
			if got := render(loaded); got != want {
				t.Errorf("Load path diverged:\nbuilt:  %s\nloaded: %s", want, got)
			}
			if got := render(mapped); got != want {
				t.Errorf("OpenMapped path diverged:\nbuilt:  %s\nmapped: %s", want, got)
			}
			if got := render(decoded); got != want {
				t.Errorf("misaligned-image path diverged:\nbuilt:   %s\ndecoded: %s", want, got)
			}
			if got := render(cached); got != want {
				t.Errorf("v2 cached path diverged:\nbuilt:  %s\ncached: %s", want, got)
			}
			if got := render(thrashed); got != want {
				t.Errorf("v2 thrashing-cache path diverged:\nbuilt:    %s\nthrashed: %s", want, got)
			}
		})
	}

	// The same property where pages are cut inside blocks: a graph big
	// enough that its default 64 KiB-block file holds several pages per
	// block, behind a cache half the size of what the walks charge a cache
	// that holds every page they touch (each page's index and the slabs of
	// the rows read from it), so the walks keep evicting and re-reading
	// pages from the middle of a block.
	t.Run("64KiB-blocks-under-eviction", func(t *testing.T) {
		big, _ := LargestComponent(gen.HolmeKim(12000, 4, 0.6, 78))
		path := filepath.Join(dir, "g3.gcsr")
		if err := graph.SaveOpts(path, big, graph.SaveOptions{Version: 2}); err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{
			{Sizes: []int{4}, D: 2, CSS: true, Seed: 5, Walkers: 4},
			{Sizes: []int{5}, D: 3, NB: true, Seed: 7},
		}
		want := make([]string, len(cfgs))
		for i, cfg := range cfgs {
			want[i] = renderEstimate(t, big, cfg)
		}
		render := func(name string, o graph.OpenOptions) graph.BlockCacheStats {
			g, err := graph.OpenMappedOpts(path, o)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for i, cfg := range cfgs {
				if got := renderEstimate(t, g, cfg); got != want[i] {
					t.Errorf("%s %s diverged:\nbuilt: %s\n%s: %s", name, cfg.MethodName(), want[i], name, got)
				}
			}
			st, _ := g.BlockCacheStats()
			return st
		}
		roomy := render("roomy", graph.OpenOptions{})
		st := render("paged", graph.OpenOptions{BlockCacheBytes: roomy.ResidentBytes / 2})
		decoded := int64(big.NumNodes()+2*int(big.NumEdges())) * 4
		if roomy.Evictions != 0 || int64(st.Blocks) < 3*(decoded/4/(64<<10)+1) || st.Evictions == 0 {
			t.Errorf("want several pages per block under eviction, got %+v (roomy %+v)", st, roomy)
		}
	})

	// The one way in, graph.OpenLCC, over every encoding a graph file can
	// arrive in, from a connected and from a disconnected input: the estimate
	// bytes and the source IDs that come out must not depend on the encoding,
	// nor on whether the component had to be rebuilt and renumbered.
	t.Run("OpenLCC", func(t *testing.T) {
		// Source IDs are sparse (10v+7) so a mapping that is dropped or not
		// composed through the renumbering cannot pass for the identity. The
		// disconnected input lists a stray triangle first, which shifts every
		// dense ID of the main component by three before the LCC extraction
		// renumbers them back.
		writeEdges := func(name string, stray bool) string {
			path := filepath.Join(dir, name)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w := bufio.NewWriter(f)
			if stray {
				fmt.Fprint(w, "1 2\n2 3\n1 3\n")
			}
			built.Edges(func(u, v int32) bool {
				fmt.Fprintf(w, "%d %d\n", 10*u+7, 10*v+7)
				return true
			})
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return path
		}
		keep := graph.OpenOptions{KeepIDs: true}
		ref, err := graph.Open(writeEdges("conn.txt", false), keep)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{
			{Sizes: []int{3}, D: 1, CSS: true, NB: true, Seed: 5},
			{Sizes: []int{4}, D: 2, CSS: true, Seed: 5, Walkers: 4},
		}
		for _, stray := range []bool{false, true} {
			input := "connected"
			if stray {
				input = "disconnected"
			}
			txt := writeEdges(input+".txt", stray)
			src, err := graph.Open(txt, keep)
			if err != nil {
				t.Fatal(err)
			}
			ids := src.OriginalIDs()
			save := func(name string, o graph.SaveOptions) string {
				path := filepath.Join(dir, input+"-"+name+".gcsr")
				if err := graph.SaveOpts(path, src, o); err != nil {
					t.Fatal(err)
				}
				return path
			}
			withSidecar := save("v1-gids", graph.SaveOptions{})
			if err := graph.SaveIDs(graph.IDsSidecarPath(withSidecar), ids); err != nil {
				t.Fatal(err)
			}
			for _, enc := range []struct {
				name, path string
				hasIDs     bool
			}{
				{"edgelist", txt, true},
				{"v1", save("v1", graph.SaveOptions{}), false},
				{"v1+gids", withSidecar, true},
				{"v2", save("v2", graph.SaveOptions{Version: 2, BlockBytes: 4 << 10}), false},
				{"v2+ids", save("v2-ids", graph.SaveOptions{Version: 2, IDs: ids}), true},
			} {
				g, err := graph.OpenLCC(enc.path, keep)
				if err != nil {
					t.Fatalf("%s %s: %v", input, enc.name, err)
				}
				for _, cfg := range cfgs {
					if want, got := renderEstimate(t, ref, cfg), renderEstimate(t, g, cfg); got != want {
						t.Errorf("%s %s %s diverged:\nref: %s\ngot: %s", input, enc.name, cfg.MethodName(), want, got)
					}
				}
				if g.HasOriginalIDs() != enc.hasIDs {
					t.Errorf("%s %s: HasOriginalIDs = %v, want %v", input, enc.name, g.HasOriginalIDs(), enc.hasIDs)
				}
				for v := int32(0); enc.hasIDs && v < int32(ref.NumNodes()); v++ {
					if got, want := g.OriginalID(v), ref.OriginalID(v); got != want {
						t.Fatalf("%s %s: OriginalID(%d) = %d, want %d", input, enc.name, v, got, want)
					}
				}
				// A connected packed graph is served from its mapping; the
				// mapping of a disconnected one was released with the rebuild.
				if mappable := enc.path != txt && mapped.Mapped(); g.Mapped() != (mappable && !stray) {
					t.Errorf("%s %s: Mapped() = %v", input, enc.name, g.Mapped())
				}
				g.Close()
			}
		}
	})
}

// Replace-by-rename, pinned: repacking over a .gcsr (and its .gids sidecar)
// that an open graph is serving from its mapping must not disturb that
// reader — its estimate after the repack equals its estimate before, to the
// byte — while a fresh Open sees the new file. The v2 reader gets a decode
// cache too small to hold its rows, so after the repack it is still reading
// pages of the replaced file, not leftovers in memory.
func TestRepackUnderMappedReader(t *testing.T) {
	served, _ := LargestComponent(gen.HolmeKim(1200, 4, 0.6, 77))
	repacked, _ := LargestComponent(gen.BarabasiAlbert(900, 3, 78))
	ids64 := make([]int64, repacked.NumNodes())
	for i := range ids64 {
		ids64[i] = int64(10*i + 7)
	}
	cfg := Config{Sizes: []int{4}, D: 2, CSS: true, Seed: 5, Walkers: 4}
	for _, version := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "g.gcsr")
		opts := graph.SaveOptions{Version: version, BlockBytes: 4 << 10}
		if err := graph.SaveOpts(path, served, opts); err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveIDs(graph.IDsSidecarPath(path), make([]int64, served.NumNodes())); err != nil {
			t.Fatal(err)
		}
		reader, err := graph.OpenMappedOpts(path, graph.OpenOptions{BlockCacheBytes: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Close()
		before := renderEstimate(t, reader, cfg)

		if err := graph.SaveOpts(path, repacked, opts); err != nil {
			t.Fatal(err)
		}
		if err := graph.SaveIDs(graph.IDsSidecarPath(path), ids64); err != nil {
			t.Fatal(err)
		}
		if after := renderEstimate(t, reader, cfg); after != before {
			t.Errorf("v%d: the open reader's estimate changed under a repack:\nbefore: %s\nafter:  %s", version, before, after)
		}
		fresh, err := graph.Open(path, graph.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if got, want := renderEstimate(t, fresh, cfg), renderEstimate(t, repacked, cfg); got != want || fresh.NumNodes() != repacked.NumNodes() {
			t.Errorf("v%d: a fresh Open does not serve the repacked graph", version)
		}
		if version == 1 && fresh.OriginalID(0) != ids64[0] {
			t.Errorf("v1: a fresh Open read sidecar ID %d, want the repacked %d", fresh.OriginalID(0), ids64[0])
		}
		if left, _ := filepath.Glob(path + "*.tmp*"); len(left) != 0 {
			t.Errorf("v%d: temp files left behind: %v", version, left)
		}
	}
}
