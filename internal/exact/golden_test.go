package exact

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestExactCountsGolden pins the fast counters' outputs on every
// testGraphs() entry and on the benchmark's truth fixture, the Holme–Kim
// graph lib_replicas scores its NRMSE against. The counts are integers, so
// any change of algorithm or summation order must reproduce them exactly.
func TestExactCountsGolden(t *testing.T) {
	golden := []struct {
		name  string
		tri   int64
		three []int64
		four  []int64
	}{
		{"ba30", 41, []int64{444, 41}, []int64{1291, 899, 94, 534, 72, 6}},
		{"c8", 0, []int64{8, 0}, []int64{8, 0, 0, 0, 0, 0}},
		{"er40", 12, []int64{362, 12}, []int64{1205, 453, 39, 129, 5, 0}},
		{"fig1", 2, []int64{2, 2}, []int64{0, 0, 0, 0, 1, 0}},
		{"hk25", 49, []int64{265, 49}, []int64{618, 341, 24, 411, 88, 8}},
		{"hk50k", 95864, []int64{6797813, 95864}, []int64{167117802, 420286181, 39903, 10530096, 145642, 3544}},
		{"k6", 20, []int64{0, 20}, []int64{0, 0, 0, 0, 0, 15}},
		{"lollipop", 10, []int64{7, 10}, []int64{6, 0, 0, 6, 0, 5}},
		{"p7", 0, []int64{5, 0}, []int64{4, 0, 0, 0, 0, 0}},
		{"star9", 0, []int64{28, 0}, []int64{0, 56, 0, 0, 0, 0}},
		{"twotri", 2, []int64{4, 2}, []int64{4, 0, 0, 2, 0, 0}},
		{"ws30", 17, []int64{141, 17}, []int64{318, 58, 4, 79, 11, 0}},
	}
	graphs := testGraphs()
	graphs["hk50k"] = gen.HolmeKim(50_000, 5, 0.5, 1337) // the bench's buildTruth fixture
	seen := map[string]bool{}
	for _, c := range golden {
		g, ok := graphs[c.name]
		if !ok {
			t.Fatalf("golden row %q names no graph", c.name)
		}
		seen[c.name] = true
		t.Run(c.name, func(t *testing.T) { checkGolden(t, g, c.tri, c.three, c.four) })
	}
	for name := range graphs {
		if !seen[name] {
			t.Errorf("graph %q has no golden row", name)
		}
	}
}

func checkGolden(t *testing.T, g *graph.Graph, tri int64, three, four []int64) {
	if got := Triangles(g); got != tri {
		t.Errorf("Triangles = %d, want %d", got, tri)
	}
	if got := ThreeNodeCounts(g); !reflect.DeepEqual(got, three) {
		t.Errorf("ThreeNodeCounts = %v, want %v", got, three)
	}
	if got := FourNodeCounts(g); !reflect.DeepEqual(got, four) {
		t.Errorf("FourNodeCounts = %v, want %v", got, four)
	}
}
