package graph_test

// Load-path and probe benchmarks on a >=1M-edge synthetic graph: text parse
// (LoadEdgeList) vs a binary image read into memory (FromImage) vs zero-copy mmap
// (OpenMapped), plus HasEdge against hub and non-hub endpoints. The fixture
// graph is deterministic (Barabási–Albert, fixed seed) and cached as files
// under the OS temp dir so repeated bench runs skip regeneration.

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

const (
	benchNodes      = 200_000
	benchAttach     = 5 // BA attachment factor: ~1M edges
	benchSeed       = 1337
	benchDirName    = "graphletrw-gcsr-bench"
	benchTxtName    = "ba-1m.txt"
	benchGcsrName   = "ba-1m.gcsr"
	benchGcsrV2Name = "ba-1m.v2.gcsr"
)

var benchFixture struct {
	once  sync.Once
	txt   string
	gcsr  string
	gcsr2 string
	g     *graph.Graph
	err   error
}

// fixture generates the benchmark graph once per process and materializes
// the on-disk encodings (text, .gcsr v1, .gcsr v2), reusing files from
// earlier runs when present (contents are deterministic).
func fixture(b *testing.B) (txt, gcsr string, g *graph.Graph) {
	b.Helper()
	f := &benchFixture
	f.once.Do(func() {
		dir := filepath.Join(os.TempDir(), benchDirName)
		if f.err = os.MkdirAll(dir, 0o755); f.err != nil {
			return
		}
		f.txt = filepath.Join(dir, benchTxtName)
		f.gcsr = filepath.Join(dir, benchGcsrName)
		f.gcsr2 = filepath.Join(dir, benchGcsrV2Name)
		f.g = gen.BarabasiAlbert(benchNodes, benchAttach, benchSeed)
		if _, err := os.Stat(f.txt); err != nil {
			// Write-then-rename so a concurrent bench process never reads a
			// half-written edge list (graph.Save is already atomic).
			tmp := f.txt + ".tmp"
			if f.err = graph.SaveEdgeList(tmp, f.g); f.err != nil {
				return
			}
			if f.err = os.Rename(tmp, f.txt); f.err != nil {
				return
			}
		}
		if _, err := os.Stat(f.gcsr); err != nil {
			if f.err = graph.Save(f.gcsr, f.g); f.err != nil {
				return
			}
		}
		if _, err := os.Stat(f.gcsr2); err != nil {
			if f.err = graph.SaveOpts(f.gcsr2, f.g, graph.SaveOptions{Version: 2}); f.err != nil {
				return
			}
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.txt, f.gcsr, f.g
}

// fixtureV2 returns the v2-encoded fixture path.
func fixtureV2(b *testing.B) string {
	b.Helper()
	fixture(b)
	return benchFixture.gcsr2
}

func BenchmarkLoadEdgeList(b *testing.B) {
	txt, _, _ := fixture(b)
	b.SetBytes(fileSize(b, txt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.LoadEdgeList(txt); err != nil {
			b.Fatal(err)
		}
	}
}

// readImage reads a .gcsr file into memory and builds the graph over that
// image, as an open does on hosts without mmap.
func readImage(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return graph.FromImage(data, graph.OpenOptions{})
}

func BenchmarkBinaryLoad(b *testing.B) {
	_, gcsr, _ := fixture(b)
	b.SetBytes(fileSize(b, gcsr))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readImage(gcsr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenMapped(b *testing.B) {
	_, gcsr, _ := fixture(b)
	b.SetBytes(fileSize(b, gcsr))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := graph.OpenMapped(gcsr)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

func BenchmarkBinaryLoadV2(b *testing.B) {
	gcsr2 := fixtureV2(b)
	b.SetBytes(fileSize(b, gcsr2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readImage(gcsr2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenMappedV2(b *testing.B) {
	gcsr2 := fixtureV2(b)
	b.SetBytes(fileSize(b, gcsr2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := graph.OpenMapped(gcsr2)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// openWarmV2 opens the v2 fixture and makes every block resident, the
// steady state a long-running walk settles into under the default cache.
func openWarmV2(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := graph.OpenMapped(fixtureV2(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		g.Neighbors(v)
	}
	return g
}

func fileSize(b *testing.B, path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return st.Size()
}

// probeTargets picks a hub endpoint (the max-degree node) and a non-hub
// endpoint, plus a pool of probe partners.
func probeTargets(b *testing.B, g *graph.Graph) (hub, nonHub int32, partners []int32) {
	b.Helper()
	hub = -1
	best := -1
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if d := g.Degree(v); d > best {
			best, hub = d, v
		}
		if nonHub == 0 && !g.IsHub(v) && g.Degree(v) > 0 {
			nonHub = v
		}
	}
	if !g.IsHub(hub) {
		b.Fatalf("max-degree node %d (degree %d) is not a hub", hub, best)
	}
	rng := rand.New(rand.NewSource(2))
	partners = make([]int32, 1024)
	for i := range partners {
		partners[i] = int32(rng.Intn(g.NumNodes()))
	}
	return hub, nonHub, partners
}

func BenchmarkHasEdge(b *testing.B) {
	_, _, g := fixture(b)
	hub, nonHub, partners := probeTargets(b, g)
	b.Run("hub", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if g.HasEdge(partners[i&1023], hub) {
				hits++
			}
		}
		sinkInt = hits
	})
	b.Run("nonhub", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if g.HasEdge(partners[i&1023], nonHub) {
				hits++
			}
		}
		sinkInt = hits
	})
}

// BenchmarkHasEdgeV2 is BenchmarkHasEdge over the warm block-compressed
// backing: the delta vs the v1 numbers is the decode-cache routing cost.
func BenchmarkHasEdgeV2(b *testing.B) {
	g := openWarmV2(b)
	hub, nonHub, partners := probeTargets(b, g)
	b.Run("hub", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if g.HasEdge(partners[i&1023], hub) {
				hits++
			}
		}
		sinkInt = hits
	})
	b.Run("nonhub", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if g.HasEdge(partners[i&1023], nonHub) {
				hits++
			}
		}
		sinkInt = hits
	})
}

// BenchmarkNeighborsV2 times a warm cached row fetch against the v1 slice
// expression it replaces.
func BenchmarkNeighborsV2(b *testing.B) {
	g := openWarmV2(b)
	rng := rand.New(rand.NewSource(5))
	nodes := make([]int32, 1024)
	for i := range nodes {
		nodes[i] = int32(rng.Intn(g.NumNodes()))
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += len(g.Neighbors(nodes[i&1023]))
	}
	sinkInt = s
}

// BenchmarkNeighborsV2Miss times the other end of the decode cache: a
// one-byte budget keeps a single page resident, so nearly every random row
// read verifies its block's CRC, loads a page and decodes the one row.
// us/miss is what a walk pays each time it leaves its cached working set;
// enc-B/miss is the mean encoded page size, the bytes a miss lays out — the
// page target, whatever BlockBytes the file was written with.
func BenchmarkNeighborsV2Miss(b *testing.B) {
	path := fixtureV2(b)
	g, err := graph.OpenMappedOpts(path, graph.OpenOptions{BlockCacheBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(5))
	nodes := make([]int32, 1024)
	for i := range nodes {
		nodes[i] = int32(rng.Intn(g.NumNodes()))
	}
	before, _ := g.BlockCacheStats()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += len(g.Neighbors(nodes[i&1023]))
	}
	b.StopTimer()
	sinkInt = s
	after, _ := g.BlockCacheStats()
	if misses := after.Misses - before.Misses; misses > 0 {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(misses), "us/miss")
		b.ReportMetric(float64(fileSize(b, path))/float64(after.Blocks), "enc-B/miss")
	}
}

var sinkInt int
