package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// referenceComponents labels every node of g with its connected component by
// a breadth-first flood from each unlabelled node in node order, so
// components are numbered in order of their smallest node. It is the
// labelling LargestComponent was first built on, kept as the reference the
// one-pass labelling is checked against.
func referenceComponents(g *Graph) (comp []int32, sizes []int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		size := 0
		stack = append(stack[:0], s)
		comp[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return comp, sizes
}

// lccGoldenGraphs are the graphs TestLCCGolden opens.
func lccGoldenGraphs() map[string]*Graph {
	rng := rand.New(rand.NewSource(53))
	// A random tree over 300 nodes, 700 random chords and 80 spokes from
	// node 0, whose degree then clears hubDegreeFloor.
	b := NewBuilder(300)
	for v := 1; v < 300; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	for range 700 {
		b.AddEdge(int32(rng.Intn(300)), int32(rng.Intn(300)))
	}
	for range 80 {
		b.AddEdge(0, int32(1+rng.Intn(299)))
	}
	connected := b.Build()

	// 64 nodes dealt in a random order into components of 12, 20, 20 and 8
	// nodes, each a random tree plus chords, and 4 isolated nodes: the two
	// components of 20 tie for largest.
	perm := rng.Perm(64)
	b = NewBuilder(64)
	at := 0
	for _, size := range []int{12, 20, 20, 8} {
		part := perm[at : at+size]
		at += size
		for i := 1; i < size; i++ {
			b.AddEdge(int32(part[i]), int32(part[rng.Intn(i)]))
		}
		for range size / 2 {
			b.AddEdge(int32(part[rng.Intn(size)]), int32(part[rng.Intn(size)]))
		}
	}
	tie := b.Build()

	return map[string]*Graph{
		"connected": connected,
		"tie":       tie,
		"isolated":  NewBuilder(7).Build(),
		"empty":     NewBuilder(0).Build(),
	}
}

// TestLCCGolden pins what the LCC path makes of each lccGoldenGraphs entry
// saved every way a .gcsr file can be: version 1 bare and with a .gids
// sidecar, and version 2 with and without embedded IDs at the default block
// size and at 64-byte blocks. For every file it hashes the bytes of
// WriteBinary(OpenLCC(file)), LargestComponent's mapping over Open(file)
// and the original IDs of OpenLCC's graph; the first two must be the same
// for every file of one graph, the IDs the same for every file carrying the
// same IDs.
func TestLCCGolden(t *testing.T) {
	golden := []struct{ name, lcc, mapping, bareIDs, keptIDs string }{
		{"connected", "fff7263003834f8a67f6823e44a3300641afe1339e9c10cd22515e599701f5f0", "31c4d357f4440759108dcb4b14645a7d75bc02cf3597e7c6e20d8173e33e0fc3", "98e038d3a30a991777ce2f66d2e9b9f377e44b6444635d2b5dd70d38ae78f241", "d950f09d438bb6cf5efe3277e47c0f99ef4f147728e79c207bfe914bd2643dd4"},
		{"tie", "8ed01f0c8daff1464c622ca67aeacc7b4d9ecdb0318525e3a6c79a5ab20b8735", "d29e0eacb5a9e98255bebcde9ab803758fe25d2b208d4cff5de935ba1a6cce3d", "f5c4cb24f4c9b43e624e0a83cb11934f932dbd5db24eee67fed696354ac88a61", "2344046d0903c5b185ff10957888cd889c5bc5f002dba025ec9acfafd9f42a7a"},
		{"isolated", "be54a53254690c0a7e60d6752224e7ec60c18e12c5cdcd15764eb88c31356bd9", "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", "2fcd151b8295e8b3bf8ec64ede173523417960a8db6cbc569de9a25a458f9135"},
		{"empty", "bfbbd519e0960119cd734823f80bccb3e3e6459d852fe80df2ed963ee8fcdc54", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	}
	graphs := lccGoldenGraphs()
	if len(graphs) != len(golden) {
		t.Fatalf("%d graphs for %d golden rows", len(graphs), len(golden))
	}
	if _, sizes := referenceComponents(graphs["tie"]); len(sizes) < 3 || slices.Max(sizes) != 20 || len(slices.DeleteFunc(slices.Clone(sizes), func(s int) bool { return s != 20 })) != 2 {
		t.Fatalf("tie graph has components %v, want two largest of 20 among at least 3", sizes)
	}
	for _, want := range golden {
		name, g := want.name, graphs[want.name]
		ids := make([]int64, g.NumNodes())
		for v := range ids {
			ids[v] = 1<<33 + int64(v)*7919
		}
		dir := t.TempDir()
		type file struct {
			path string
			kept bool
		}
		var files []file
		for _, kept := range []bool{false, true} {
			v1 := filepath.Join(dir, fmt.Sprintf("v1-ids=%v%s", kept, GCSRExt))
			if err := Save(v1, g); err != nil {
				t.Fatal(err)
			}
			if kept {
				if err := SaveIDs(IDsSidecarPath(v1), ids); err != nil {
					t.Fatal(err)
				}
			}
			files = append(files, file{v1, kept})
			for _, block := range []int{0, 64} {
				o := SaveOptions{Version: 2, BlockBytes: block}
				if kept {
					o.IDs = ids
				}
				v2 := filepath.Join(dir, fmt.Sprintf("v2-ids=%v-block=%d%s", kept, block, GCSRExt))
				if err := SaveOpts(v2, g, o); err != nil {
					t.Fatal(err)
				}
				files = append(files, file{v2, kept})
			}
		}
		for _, f := range files {
			t.Run(name+"/"+filepath.Base(f.path), func(t *testing.T) {
				lcc, err := OpenLCC(f.path, OpenOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer lcc.Close()
				opened, err := Open(f.path, OpenOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer opened.Close()
				_, toOld := LargestComponent(opened)
				wantIDs := want.bareIDs
				if f.kept {
					wantIDs = want.keptIDs
				}
				for _, c := range []struct{ what, got, want string }{
					{"OpenLCC image", sha256Hex(v1Image(t, lcc)), want.lcc},
					{"LargestComponent mapping", sha256Hex(int32Bytes(toOld)), want.mapping},
					{"original IDs", sha256Hex(originalIDBytes(lcc)), wantIDs},
				} {
					if c.got != c.want {
						t.Errorf("%s: sha256 %s, want %s", c.what, c.got, c.want)
					}
				}
			})
		}
	}
}

// originalIDBytes is the little-endian encoding of OriginalID over g's
// nodes.
func originalIDBytes(g *Graph) []byte {
	var out []byte
	for v := range int32(g.NumNodes()) {
		out = binary.LittleEndian.AppendUint64(out, uint64(g.OriginalID(v)))
	}
	return out
}

// int32Bytes is the little-endian encoding of s.
func int32Bytes(s []int32) []byte {
	out := make([]byte, 0, 4*len(s))
	for _, x := range s {
		out = binary.LittleEndian.AppendUint32(out, uint32(x))
	}
	return out
}

// sha256Hex returns the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOpenLCCAddsNoPageCacheTraffic: on a connected v2 file, OpenLCC leaves
// the page cache exactly as a plain open does — the same loads, evictions,
// hits and resident bytes — at budgets from one page to the default, so
// finding the graph connected reads no row through the cache.
func TestOpenLCCAddsNoPageCacheTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	const n = 20000
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	for range 3 * n {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	for range 200 {
		b.AddEdge(7, int32(rng.Intn(n)))
	}
	g := b.Build()
	if _, sizes := referenceComponents(g); len(sizes) != 1 {
		t.Fatalf("fixture has %d components", len(sizes))
	}
	path := saveV2(t, t.TempDir(), "connected", g, SaveOptions{})
	for _, budget := range []int64{1, 64 << 10, 0} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			o := OpenOptions{BlockCacheBytes: budget}
			plain, err := OpenMappedOpts(path, o)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			lcc, err := OpenLCC(path, o)
			if err != nil {
				t.Fatal(err)
			}
			defer lcc.Close()
			want, _ := plain.BlockCacheStats()
			got, ok := lcc.BlockCacheStats()
			if !ok || got != want {
				t.Errorf("OpenLCC leaves the cache at %+v, a plain open at %+v", got, want)
			}
			if want.Blocks < 10 {
				t.Errorf("fixture has %d pages, want a cache smaller than the file at every budget but the default", want.Blocks)
			}
		})
	}
}
