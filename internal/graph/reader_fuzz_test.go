package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEdgeList: the edge-list reader never panics, and every list it
// accepts is a valid graph that round-trips through WriteEdgeList to an
// equal graph — equal up to the dense renumbering, which the re-read's kept
// IDs undo — with the source IDs kept exactly when asked.
func FuzzReadEdgeList(f *testing.F) {
	for _, in := range []string{
		"0 1\n1 2\n2 0\n",
		"# comment\n% other\n1000 2000\n2000 3000 extra\n\t3000\t1000\r\n",
		"5 5\n-3 +7\n7 -3\n",
		"1 2\n2\n",
		"99999999999999999999 1\n",
	} {
		f.Add([]byte(in), false)
		f.Add([]byte(in), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, keepIDs bool) {
		g, err := readEdgeList(bytes.NewReader(data), keepIDs)
		if err != nil {
			return
		}
		if err := Validate(g); err != nil {
			t.Fatalf("accepted edge list fails validation: %v", err)
		}
		if ids := g.OriginalIDs(); keepIDs && len(ids) != g.NumNodes() || !keepIDs && ids != nil {
			t.Fatalf("keepIDs %v: %d source IDs for %d nodes", keepIDs, len(ids), g.NumNodes())
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := readEdgeList(&buf, true)
		if err != nil {
			t.Fatalf("re-reading the written list: %v", err)
		}
		isolated := 0
		for v := range int32(g.NumNodes()) {
			if g.Degree(v) == 0 {
				isolated++
			}
		}
		if back.NumNodes() != g.NumNodes()-isolated || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip: %d nodes, %d edges; want %d non-isolated nodes, %d edges",
				back.NumNodes(), back.NumEdges(), g.NumNodes()-isolated, g.NumEdges())
		}
		back.Edges(func(u, v int32) bool {
			if !g.HasEdge(int32(back.OriginalID(u)), int32(back.OriginalID(v))) {
				t.Fatalf("round trip added edge %d-%d", back.OriginalID(u), back.OriginalID(v))
			}
			return true
		})
	})
}

// FuzzParseIDs: the .gids reader never panics, and every payload it accepts
// is the one SaveIDs writes for the IDs it decoded.
func FuzzParseIDs(f *testing.F) {
	dir := f.TempDir()
	for i, ids := range [][]int64{nil, {7}, {1000, -2, 1 << 40, 3}} {
		path := filepath.Join(dir, "seed.gids")
		if err := SaveIDs(path, ids); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 2 {
			f.Add(data[:len(data)-8])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := parseIDs(data)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "ids.gids")
		if err := SaveIDs(path, ids); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-encodes as %x", data, again)
		}
	})
}
