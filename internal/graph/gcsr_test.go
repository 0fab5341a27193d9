package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// graphsEqual compares two graphs structurally (CSR arrays and cached
// metadata).
func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.MaxDegree() != b.MaxDegree() {
		t.Fatalf("shape mismatch: %v maxDeg=%d vs %v maxDeg=%d", a, a.MaxDegree(), b, b.MaxDegree())
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: neighbor[%d] = %d vs %d", v, i, na[i], nb[i])
			}
		}
	}
}

func randomTestGraph(rng *rand.Rand, n, edges int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestGCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).Build()},
		{"edgeless", NewBuilder(5).Build()},
		{"k4", FromEdgeList(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})},
		{"random", randomTestGraph(rng, 300, 2000)},
		{"star", starGraph(200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+GCSRExt)
			if err := Save(path, tc.g); err != nil {
				t.Fatal(err)
			}
			loaded, err := load(path)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, tc.g, loaded)
			if err := Validate(loaded); err != nil {
				t.Errorf("Load: %v", err)
			}
			mapped, err := OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, tc.g, mapped)
			if err := Validate(mapped); err != nil {
				t.Errorf("OpenMapped: %v", err)
			}
			if err := mapped.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := loaded.Close(); err != nil {
				t.Errorf("Close on heap-backed graph: %v", err)
			}
			// The image one byte off alignment cannot be aliased, so
			// fromImage decodes it into heap arrays: a change to the image
			// after the build (its last byte, in off[n] or the last arc)
			// must not reach the graph.
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			odd := make([]byte, len(image)+1)[1:]
			copy(odd, image)
			decoded, _, _, err := fromImage(odd, OpenOptions{}, false)
			if err != nil {
				t.Fatal(err)
			}
			odd[len(odd)-1] ^= 0xff
			graphsEqual(t, tc.g, decoded)
			if err := Validate(decoded); err != nil || decoded.off[decoded.NumNodes()] != 2*decoded.NumEdges() {
				t.Errorf("misaligned image: %v, or the graph aliases the image", err)
			}
		})
	}
}

// starGraph returns a star with center 0 and n-1 leaves — above the hub
// degree floor the center gets a bitset row.
func starGraph(n int) *Graph {
	b := NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Property: any built graph survives a Save → Load and Save → OpenMapped
// round trip with equality, a passing Validate, and the max degree intact.
func TestGCSRRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(raw []uint16) bool {
		b := NewBuilder(1)
		for j := 0; j+1 < len(raw); j += 2 {
			b.AddEdge(int32(raw[j]%97), int32(raw[j+1]%97))
		}
		g := b.Build()
		i++
		path := filepath.Join(dir, "prop.gcsr")
		if err := Save(path, g); err != nil {
			t.Logf("save: %v", err)
			return false
		}
		for _, open := range []func(string) (*Graph, error){load, OpenMapped} {
			got, err := open(path)
			if err != nil {
				t.Logf("open: %v", err)
				return false
			}
			ok := got.NumNodes() == g.NumNodes() &&
				got.NumEdges() == g.NumEdges() &&
				got.MaxDegree() == g.MaxDegree() &&
				Validate(got) == nil
			if ok {
				for v := int32(0); v < int32(g.NumNodes()); v++ {
					a, b := g.Neighbors(v), got.Neighbors(v)
					if len(a) != len(b) {
						ok = false
						break
					}
					for k := range a {
						if a[k] != b[k] {
							ok = false
							break
						}
					}
				}
			}
			got.Close()
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGCSRWriteReadBinaryStream(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(3)), 100, 400)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := FromImage(buf.Bytes(), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

// The two .gcsr v1 payload paths write the same bytes: the per-element
// encoder, the only path of a big-endian host, and the byte views of a
// little-endian one. A graph served from a v2 file's blocks, which has no
// adj array, writes the same image as the graph it was packed from.
func TestGCSRWriterPathsAgree(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(5)), 300, 2000)
	// A hub row, so the image also covers a row longer than a few words.
	b := NewBuilder(0)
	g.Edges(func(u, v int32) bool { b.AddEdge(u, v); return true })
	for v := int32(1); v < 200; v++ {
		b.AddEdge(0, v)
	}
	g = b.Build()
	v2, err := FromImage(v2Image(t, g, SaveOptions{BlockBytes: 256}), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(g *Graph, bulk bool) []byte {
		var buf bytes.Buffer
		if err := writeBinary(&buf, g, bulk); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(g, false)
	if got := crc32.Checksum(want[gcsrHeaderSize:], castagnoli); got != binary.LittleEndian.Uint32(want[32:36]) {
		t.Fatalf("per-element image: payload CRC %08x, header says %08x", got, binary.LittleEndian.Uint32(want[32:36]))
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		bulk bool
	}{
		{"v2 rows, per element", v2, false},
		{"bulk", g, true},
		{"v2 rows, bulk", v2, true},
	} {
		if tc.bulk && !hostLittleEndian() {
			continue // the bulk path writes host byte order
		}
		got := encode(tc.g, tc.bulk)
		if !bytes.Equal(got[32:36], want[32:36]) {
			t.Errorf("%s: header CRC %x, per-element path wrote %x", tc.name, got[32:36], want[32:36])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: image differs from the per-element path's", tc.name)
		}
	}
	if _, err := FromImage(encode(v2, hostLittleEndian()), OpenOptions{}); err != nil {
		t.Fatalf("v1 image of a v2 graph does not open: %v", err)
	}
}

func TestGCSRCorruption(t *testing.T) {
	g := randomTestGraph(rand.New(rand.NewSource(4)), 64, 256)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	write := func(b []byte) string {
		path := filepath.Join(dir, "bad.gcsr")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), "magic"},
		{"bad version", mutate(func(b []byte) { b[4] = 99 }), "version"},
		{"short header", good[:10], "header"},
		{"truncated payload", good[:len(good)-5], ""},
		{"flipped payload byte", mutate(func(b []byte) { b[gcsrHeaderSize+9] ^= 0xff }), "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(tc.data)
			for _, open := range []struct {
				name string
				fn   func(string) (*Graph, error)
			}{{"load", load}, {"OpenMapped", OpenMapped}} {
				_, err := open.fn(path)
				if err == nil {
					t.Fatalf("%s accepted corrupted file (%s)", open.name, tc.name)
				}
				if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("%s error %q does not mention %q", open.name, err, tc.wantSub)
				}
			}
		})
	}
}

// A structurally invalid file whose checksum is internally consistent (any
// writer other than Save could produce one) must be rejected by both load
// paths, not crash or silently skew probes.
func TestGCSRRejectsInvalidAdjacency(t *testing.T) {
	g := FromEdgeList(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	// adj entry i lives at headerSize + (n+1)*8 + 4*i.
	adjOffset := func(i int) int { return gcsrHeaderSize + (g.NumNodes()+1)*8 + 4*i }
	cases := []struct {
		name    string
		mut     func(b []byte)
		wantSub string
	}{
		{"out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[adjOffset(0):], 99)
		}, "out of range"},
		{"self loop", func(b []byte) {
			// First entry is neighbor row of node 0; point it at 0 itself.
			binary.LittleEndian.PutUint32(b[adjOffset(0):], 0)
		}, "self loop"},
		{"unsorted row", func(b []byte) {
			// Swap node 0's first two neighbors (1 and 2).
			binary.LittleEndian.PutUint32(b[adjOffset(0):], 2)
			binary.LittleEndian.PutUint32(b[adjOffset(1):], 1)
		}, "ascending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mut(b)
			// Recompute the checksum so only the structural check can fail.
			crc := crc32.Checksum(b[gcsrHeaderSize:], castagnoli)
			binary.LittleEndian.PutUint32(b[32:36], crc)
			path := filepath.Join(dir, "bad.gcsr")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, open := range []struct {
				name string
				fn   func(string) (*Graph, error)
			}{{"load", load}, {"OpenMapped", OpenMapped}} {
				_, err := open.fn(path)
				if err == nil {
					t.Fatalf("%s accepted structurally invalid file", open.name)
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("%s error %q does not mention %q", open.name, err, tc.wantSub)
				}
			}
		})
	}
}

// Validate must catch an asymmetric edge even when the listed endpoint is a
// hub: the bitset fast path in HasEdge answers from the hub's own row, so
// the check has to probe the counterpart's list directly.
func TestValidateCatchesAsymmetricHubEdge(t *testing.T) {
	// Hand-built broken CSR: node 0 lists 1..100 as neighbors, but every
	// other node has an empty row. Arc count is 100 = 2m for m=50, so only
	// the symmetry check can reject it.
	n := 101
	off := make([]int64, n+1)
	adj := make([]int32, 100)
	for i := 0; i < 100; i++ {
		adj[i] = int32(i + 1)
	}
	off[1] = 100
	for v := 2; v <= n; v++ {
		off[v] = 100
	}
	g := &Graph{off: off, adj: adj, m: 50, maxDeg: 100}
	g.buildHubIndex()
	if !g.IsHub(0) {
		t.Fatal("node 0 should be a hub")
	}
	if err := Validate(g); err == nil {
		t.Fatal("Validate accepted an asymmetric graph with a hub endpoint")
	} else if !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("Validate error %q is not the asymmetry check", err)
	}
}

// A header lying about the payload size must produce an error, not a panic
// or an impossible allocation.
func TestGCSRLyingHeader(t *testing.T) {
	g := FromEdgeList(3, [][2]int32{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, m := range map[string]uint64{
		"huge m":     1 << 60,
		"max m":      1<<63 - 1,
		"moderate m": 1 << 40, // plausible-looking but far beyond the data
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[16:24], m)
		if _, err := FromImage(b, OpenOptions{}); err == nil {
			t.Errorf("%s: FromImage accepted a lying header", name)
		}
	}
}

// Open detects the encoding — the .gcsr extension wins, then the magic
// bytes — and parses the file in it; there is no way to force a format.
func TestOpenDetectsFormat(t *testing.T) {
	dir := t.TempDir()
	g := starGraph(30) // its edge list outgrows a .gcsr header
	gcsrPath := filepath.Join(dir, "g.gcsr")
	if err := Save(gcsrPath, g); err != nil {
		t.Fatal(err)
	}
	image, _ := os.ReadFile(gcsrPath)
	txtPath := filepath.Join(dir, "g.txt")
	if err := SaveEdgeList(txtPath, g); err != nil {
		t.Fatal(err)
	}
	edges, _ := os.ReadFile(txtPath)
	// A .gcsr image under a neutral or even a text extension is still
	// sniffed by magic.
	sniffPath := filepath.Join(dir, "g.bin")
	disguisedPath := filepath.Join(dir, "packed.txt")
	// An edge list under the .gcsr extension is not re-guessed: the
	// extension wins and the open fails on the magic.
	mislabeledPath := filepath.Join(dir, "edges.gcsr")
	for path, data := range map[string][]byte{sniffPath: image, disguisedPath: image, mislabeledPath: edges} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for path, want := range map[string]bool{
		gcsrPath:                          true,
		sniffPath:                         true,
		disguisedPath:                     true,
		txtPath:                           false,
		mislabeledPath:                    true,
		filepath.Join(dir, "missing.txt"): false,
	} {
		if got := IsGCSR(path); got != want {
			t.Errorf("IsGCSR(%s) = %v, want %v", path, got, want)
		}
	}
	for _, path := range []string{gcsrPath, sniffPath, disguisedPath, txtPath} {
		opened, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatalf("Open(%s): %v", path, err)
		}
		graphsEqual(t, g, opened)
		opened.Close()
	}
	if _, err := Open(mislabeledPath, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Open of an edge list named .gcsr: %v, want the magic error", err)
	}
}

func TestHubIndex(t *testing.T) {
	// Star with 200 leaves: center degree 199 >= hubDegreeFloor, so the
	// center owns a bitset row and probes against it answer in O(1).
	g := starGraph(200)
	if !g.IsHub(0) {
		t.Fatal("star center is not a hub")
	}
	for v := int32(1); v < 200; v++ {
		if g.IsHub(v) {
			t.Fatalf("leaf %d is a hub", v)
		}
		if !g.HasEdge(0, v) || !g.HasEdge(v, 0) {
			t.Fatalf("missing star edge (0,%d)", v)
		}
	}
	if g.HasEdge(1, 2) || g.HasEdge(199, 2) {
		t.Error("leaves are not adjacent")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	// A graph below the floor must not build the index.
	small := FromEdgeList(4, [][2]int32{{0, 1}, {1, 2}})
	if small.IsHub(1) {
		t.Error("low-degree node became a hub")
	}
}

// HasEdge over hubs must agree with the binary-search answer on a denser
// random graph where several nodes clear the hub threshold.
func TestHubHasEdgeAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(150)
	// A few heavy nodes plus random background edges.
	for c := int32(0); c < 3; c++ {
		for v := int32(0); v < 150; v++ {
			if rng.Intn(10) < 7 {
				b.AddEdge(c, v)
			}
		}
	}
	for i := 0; i < 600; i++ {
		b.AddEdge(int32(rng.Intn(150)), int32(rng.Intn(150)))
	}
	g := b.Build()
	hubs := 0
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.IsHub(v) {
			hubs++
		}
	}
	if hubs == 0 {
		t.Fatal("expected at least one hub")
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		ns := g.Neighbors(u)
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			want := false
			for _, x := range ns {
				if x == v {
					want = true
					break
				}
			}
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestGallopingCommonNeighbors(t *testing.T) {
	// Node 0 adjacent to everything (long list), node 1 adjacent to a few
	// scattered nodes (short list) — the skew triggers galloping.
	n := 2000
	b := NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(0, v)
	}
	sparse := []int32{0, 3, 77, 500, 501, 1500, 1999}
	for _, v := range sparse {
		b.AddEdge(1, v)
	}
	g := b.Build()
	// Common neighbors of 0 and 1: the sparse list minus 0 itself (0 is not
	// its own neighbor) — {3, 77, 500, 501, 1500, 1999}.
	want := []int32{3, 77, 500, 501, 1500, 1999}
	if got := g.CommonNeighbors(0, 1); got != len(want) {
		t.Fatalf("CommonNeighbors = %d, want %d", got, len(want))
	}
	got := g.CommonNeighborsInto(nil, 0, 1)
	if len(got) != len(want) {
		t.Fatalf("CommonNeighborsInto = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommonNeighborsInto = %v, want %v", got, want)
		}
	}
	// Symmetric argument order must agree.
	if g.CommonNeighbors(1, 0) != len(want) {
		t.Error("CommonNeighbors not symmetric")
	}
}

// Property: galloping and linear-merge intersection agree on random sorted
// lists of skewed lengths.
func TestGallopIntersectionProperty(t *testing.T) {
	f := func(rawA []uint16, rawB []uint16, extra uint8) bool {
		n := 4096
		b := NewBuilder(n)
		for _, x := range rawA {
			b.AddEdge(0, int32(x%uint16(n-2))+2)
		}
		for _, x := range rawB {
			b.AddEdge(1, int32(x%uint16(n-2))+2)
		}
		// Widen the skew with a block of consecutive neighbors of node 0.
		for v := int32(0); v < int32(extra); v++ {
			b.AddEdge(0, 2+v)
		}
		g := b.Build()
		a, bb := g.Neighbors(0), g.Neighbors(1)
		want := 0
		i, j := 0, 0
		for i < len(a) && j < len(bb) {
			switch {
			case a[i] < bb[j]:
				i++
			case a[i] > bb[j]:
				j++
			default:
				want++
				i++
				j++
			}
		}
		return g.CommonNeighbors(0, 1) == want && g.CommonNeighbors(1, 0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// HasEdge and Neighbors must stay allocation-free on both construction
// paths — they sit on the walker's window-classification hot loop.
func TestProbesAllocationFree(t *testing.T) {
	built := starGraph(300)
	path := filepath.Join(t.TempDir(), "g.gcsr")
	if err := Save(path, built); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, g := range map[string]*Graph{"built": built, "mapped": mapped} {
		g := g
		if n := testing.AllocsPerRun(100, func() {
			g.HasEdge(0, 7)    // hub path
			g.HasEdge(7, 9)    // search path
			_ = g.Neighbors(3) //
		}); n != 0 {
			t.Errorf("%s: HasEdge/Neighbors allocate %.1f allocs/op", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			g.CommonNeighbors(0, 7)
		}); n != 0 {
			t.Errorf("%s: CommonNeighbors allocates %.1f allocs/op", name, n)
		}
	}
}

func TestLargestComponentConnectedFastPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.gcsr")
	if err := Save(path, starGraph(50)); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	lcc, toOld := LargestComponent(mapped)
	if lcc != mapped {
		t.Error("connected graph was rebuilt instead of returned as-is")
	}
	if len(toOld) != 50 {
		t.Fatalf("identity mapping has %d entries", len(toOld))
	}
	for v, old := range toOld {
		if int32(v) != old {
			t.Fatalf("toOld[%d] = %d, want identity", v, old)
		}
	}
}
