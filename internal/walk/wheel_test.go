package walk

import (
	"testing"

	"repro/internal/access"
	"repro/internal/graph"
)

// oracleWheel builds the wheels of internal/core's oracle rows: hub 0 joined
// to a rim of the given length, plus a chord (r, r+2) every chordEvery rim
// nodes (none when chordEvery is 0).
func oracleWheel(rim, chordEvery int32) *graph.Graph {
	b := graph.NewBuilder(int(rim) + 1)
	for i := int32(1); i <= rim; i++ {
		b.AddEdge(0, i)
		b.AddEdge(i, i%rim+1)
	}
	for r := int32(1); chordEvery > 0 && r < rim; r += chordEvery {
		b.AddEdge(r, r+2)
	}
	return b.Build()
}

// TestNthNeighborOnOracleWheels fences the d = 3 draw on the two wheels the
// unbiasedness oracle walks, which enumerates transition probabilities
// through StateDegree and never draws. For every state of G(3) — every
// connected node triple — nthNeighbor at every index must be
// referenceNeighbors' element at that index. On wheel71 the hub (degree 70)
// owns a hub bitset row, so a free client's draws from a state holding it
// rank through the row; on wheel49 (hub degree 48) and through a crawl
// client every long row gallops.
func TestNthNeighborOnOracleWheels(t *testing.T) {
	for _, w := range []struct {
		name   string
		g      *graph.Graph
		hubRow bool
	}{{"wheel71", oracleWheel(70, 7), true}, {"wheel49", oracleWheel(48, 0), false}} {
		if got := !w.g.HubRow(0).IsZero(); got != w.hubRow {
			t.Fatalf("%s: hub owns a hub row = %v, want %v", w.name, got, w.hubRow)
		}
		n := int32(w.g.NumNodes())
		free := access.NewGraphClient(w.g)
		for _, c := range []struct {
			name   string
			client access.Client
		}{{"free", free}, {"crawl", access.NewCounting(free, int(n))}} {
			sp := newSpaceD(c.client, 3)
			states, draws := 0, 0
			for a := int32(0); a < n; a++ {
				for b := a + 1; b < n; b++ {
					for d := b + 1; d < n; d++ {
						ab, ad, bd := w.g.HasEdge(a, b), w.g.HasEdge(a, d), w.g.HasEdge(b, d)
						if !(ab && ad || ab && bd || ad && bd) {
							continue
						}
						st := StateOf(a, b, d)
						want := referenceNeighbors(c.client, st)
						if got := sp.StateDegree(st); got != len(want) {
							t.Fatalf("%s/%s %v: StateDegree %d, want %d", w.name, c.name, st, got, len(want))
						}
						fi := sp.infoOf(st)
						for i := range want {
							if got, _ := sp.nthNeighbor(st, fi, int32(i)); got != want[i] {
								t.Fatalf("%s/%s %v: nthNeighbor(%d) = %v, want %v", w.name, c.name, st, i, got, want[i])
							}
						}
						states++
						draws += len(want)
					}
				}
			}
			if states < int(n-1)*int(n-2)/2 {
				t.Fatalf("%s/%s: only %d states; the hub alone makes %d", w.name, c.name, states, (n-1)*(n-2)/2)
			}
			t.Logf("%s/%s: %d states, %d draws", w.name, c.name, states, draws)
		}
	}
}
