package walk

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The kernel's correctness contract: for every state, the merge-based kernel
// must reproduce the naive §5 materialization (referenceNeighbors) exactly —
// same elements in the same positions, because RNG draws index into the
// canonical order and estimates are required to stay byte-identical. The test
// sweeps random graphs of three models and d ∈ {3, 4, 5}, exercising all
// three kernel paths: the counting scan (StateDegree), the materializing scan
// (neighbors), and the per-index draw (nthNeighbor, which also covers the d=3
// closed-form group counts and the short-row selection). These graphs have no
// hub bitset row and hardly a skewed pair of rows;
// TestKernelMatchesReferenceOnHubs and TestSelectNthMatchesMerge reach those.
func TestKernelMatchesReferenceOrder(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":       gen.BarabasiAlbert(40, 2, 101),
		"hk":       gen.HolmeKim(40, 3, 0.5, 102),
		"lollipop": gen.Lollipop(7, 5),
	}
	rng := rand.New(rand.NewSource(103))
	for name, g := range graphs {
		c := access.NewGraphClient(g)
		for d := 3; d <= MaxD; d++ {
			sp := newSpaceD(c, d)
			// Attempt-bounded: small graphs may not have 60 distinct
			// reachable states for large d.
			states := map[State]bool{}
			for i := 0; i < 500 && len(states) < 60; i++ {
				states[sp.RandomState(rng)] = true
			}
			for st := range states {
				want := referenceNeighbors(c, st)
				if got := sp.StateDegree(st); got != len(want) {
					t.Fatalf("%s d=%d %v: StateDegree %d, want %d", name, d, st, got, len(want))
				}
				got := sp.neighbors(st)
				if len(got) != len(want) {
					t.Fatalf("%s d=%d %v: %d neighbors, want %d", name, d, st, len(got), len(want))
				}
				fi := sp.infoOf(st)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s d=%d %v: neighbors()[%d] = %v, want %v (order must match)",
							name, d, st, i, got[i], want[i])
					}
					if nth, _ := sp.nthNeighbor(st, fi, int32(i)); nth != want[i] {
						t.Fatalf("%s d=%d %v: nthNeighbor(%d) = %v, want %v",
							name, d, st, i, nth, want[i])
					}
				}
			}
		}
	}
}

// The kernel's adjacency masks must agree with the client's HasEdge — the
// core classification layer substitutes them for edge probes.
func TestStateAdjMatchesHasEdge(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 104)
	c := access.NewGraphClient(g)
	rng := rand.New(rand.NewSource(105))
	for d := 2; d <= MaxD; d++ {
		sp := NewSpace(c, d)
		for n := 0; n < 40; n++ {
			st := sp.RandomState(rng)
			adj := sp.StateAdj(st)
			for i := 0; i < st.Len(); i++ {
				for j := 0; j < st.Len(); j++ {
					want := i != j && c.HasEdge(st.Node(i), st.Node(j))
					if got := adj[i]&(1<<uint(j)) != 0; got != want {
						t.Fatalf("d=%d %v: adj[%d][%d] = %v, want %v", d, st, i, j, got, want)
					}
				}
			}
		}
	}
}

// A crawl-style client without the CommonCounter capability must take the
// generic merge for d=3 group counts and still agree with the closed form.
func TestKernelWithoutCommonCounter(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 106)
	free := access.NewGraphClient(g)
	counted := access.NewCounting(free, g.NumNodes()) // does not implement CommonCounter
	if _, ok := interface{}(counted).(access.CommonCounter); ok {
		t.Fatal("Counting unexpectedly implements CommonCounter; test premise broken")
	}
	rng := rand.New(rand.NewSource(107))
	spFree := newSpaceD(free, 3)
	spCrawl := newSpaceD(counted, 3)
	if spFree.cc == nil {
		t.Fatal("GraphClient should provide CommonCounter")
	}
	if spCrawl.cc != nil {
		t.Fatal("Counting client must not provide CommonCounter")
	}
	for n := 0; n < 60; n++ {
		st := spFree.RandomState(rng)
		if got, want := spCrawl.StateDegree(st), spFree.StateDegree(st); got != want {
			t.Fatalf("%v: merge count %d != closed-form count %d", st, got, want)
		}
	}
}

// TestKernelMatchesReferenceOnHubs repeats the equivalence check where the
// d=3 step actually spends its time: states visited by a stationary walk on
// a hub-heavy graph (most hold a hub, so the selection gallops a long row and
// the group counts read hub bitset rows), heap-built and served from a
// block-compressed file. Checked against referenceNeighbors: StateDegree,
// nthNeighbor at every index, and the non-backtracking draw.
func TestKernelMatchesReferenceOnHubs(t *testing.T) {
	heap := gen.BarabasiAlbert(1500, 3, 108)
	path := filepath.Join(t.TempDir(), "ba.gcsr")
	if err := graph.SaveOpts(path, heap, graph.SaveOptions{Version: 2}); err != nil {
		t.Fatal(err)
	}
	v2, err := graph.OpenMappedOpts(path, graph.OpenOptions{BlockCacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	for name, g := range map[string]*graph.Graph{"heap": heap, "v2": v2} {
		c := access.NewGraphClient(g)
		sp := newSpaceD(c, 3)
		rng := rand.New(rand.NewSource(109))
		w := New(sp, false, rng)
		w.Burn(200)
		hubStates := 0
		for n := 0; n < 150; n++ {
			prev := w.Current()
			st := w.Step()
			for i := 0; i < st.Len(); i++ {
				if g.IsHub(st.Node(i)) {
					hubStates++
					break
				}
			}
			want := referenceNeighbors(c, st)
			if got := sp.StateDegree(st); got != len(want) {
				t.Fatalf("%s %v: StateDegree %d, want %d", name, st, got, len(want))
			}
			fi := sp.infoOf(st)
			for i := range want {
				if nth, _ := sp.nthNeighbor(st, fi, int32(i)); nth != want[i] {
					t.Fatalf("%s %v: nthNeighbor(%d) = %v, want %v", name, st, i, nth, want[i])
				}
			}
			// The NB draw: same RNG stream, redrawn while it lands on prev.
			seed := rng.Int63()
			ref := rand.New(rand.NewSource(seed))
			wantNB := want[ref.Intn(len(want))]
			for wantNB == prev {
				wantNB = want[ref.Intn(len(want))]
			}
			if got := sp.RandomNeighborAvoiding(st, prev, rand.New(rand.NewSource(seed))); got != wantNB {
				t.Fatalf("%s %v avoiding %v: got %v, want %v", name, st, prev, got, wantNB)
			}
		}
		if hubStates < 50 {
			t.Fatalf("%s: only %d of 150 walk states hold a hub; the test no longer reaches the hub paths", name, hubStates)
		}
	}
}

// TestSelectNthMatchesMerge checks the short-row selection directly against
// a materialized merge — element and membership, counting up and counting
// down, either row first — for the union and the intersection, at every
// index, over generated sorted rows (empty, disjoint, equal, nested,
// interleaved, length ratios 1 to 1000) with the three state members placed
// inside long runs, at run edges, in one row, in both and in neither.
func TestSelectNthMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	// sample draws n distinct ascending values from [0, span).
	sample := func(n, span int) []int32 {
		out := make([]int32, 0, n)
		for _, v := range rng.Perm(span)[:n] {
			out = append(out, int32(v))
		}
		slices.Sort(out)
		return out
	}
	seq := func(from, n, step int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(from + i*step)
		}
		return out
	}
	type rowPair struct {
		name string
		a, b []int32
	}
	rows := []rowPair{
		{"both empty", nil, nil},
		{"one empty", nil, seq(3, 40, 2)},
		{"disjoint", seq(0, 30, 1), seq(100, 30, 1)},
		{"equal", seq(5, 50, 3), seq(5, 50, 3)},
		{"nested", seq(40, 10, 8), seq(0, 200, 1)},
		{"interleaved", seq(0, 60, 2), seq(1, 60, 2)},
		{"short inside", []int32{500}, seq(0, 1000, 1)},
		{"short before", []int32{0}, seq(1, 1000, 1)},
		{"short after", []int32{5000}, seq(0, 1000, 1)},
	}
	for _, ratio := range []int{1, 2, 7, 16, 100, 1000} {
		short := 1 + rng.Intn(6)
		rows = append(rows, rowPair{fmt.Sprintf("ratio %d", ratio), sample(short, 3*short*ratio), sample(short*ratio, 3*short*ratio)})
	}
	for _, row := range rows {
		name, a, b := row.name, row.a, row.b
		union := append(slices.Clone(a), b...)
		slices.Sort(union)
		union = slices.Compact(union)
		// Member pool: every value at or next to a short-row element (run
		// edges, in one row, both or neither), the ends of the union, and a
		// few values from the middle of runs.
		short, long := a, b
		if len(short) > len(long) {
			short, long = long, short
		}
		pool := []int32{1 << 20, 1 << 21, 1 << 22} // in neither row
		for _, x := range short {
			pool = append(pool, x-1, x, x+1)
		}
		if len(union) > 0 {
			pool = append(pool, union[0], union[len(union)-1])
		}
		for i := 0; i < 6 && len(long) > 0; i++ {
			pool = append(pool, long[rng.Intn(len(long))])
		}
		slices.Sort(pool)
		pool = slices.Compact(pool)
		if pool[0] < 0 {
			pool = pool[1:]
		}
		for trial := 0; trial < 200; trial++ {
			p := rng.Perm(len(pool))
			st := StateOf(pool[p[0]], pool[p[1]], pool[p[2]])
			for _, both := range []bool{false, true} {
				checkSelect(t, name, a, b, st, both, -1)
			}
		}
	}
}

// mergeSelect is the plain merge selectNth must agree with: the elements of
// (a ∪ b) \ st — (a ∩ b) \ st when both is set — ascending, with their
// membership in a and b.
func mergeSelect(a, b []int32, st State, both bool) (ys []int32, ins []uint8) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var y int32
		var in uint8
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			y, in = a[i], inA
			i++
		case i == len(a) || b[j] < a[i]:
			y, in = b[j], inB
			j++
		default:
			y, in = a[i], inA|inB
			i++
			j++
		}
		if st.Contains(y) || both && in != inA|inB {
			continue
		}
		ys, ins = append(ys, y), append(ins, in)
	}
	return ys, ins
}

// checkSelect compares every way of selecting from a and b with mergeSelect,
// at index only (or at every index when only is negative): counting up and
// counting down with the shorter row iterated, as selectNth runs them, and
// selectNth with either row first.
func checkSelect(t testing.TB, name string, a, b []int32, st State, both bool, only int) {
	t.Helper()
	ys, ins := mergeSelect(a, b, st, both)
	n := len(ys)
	short, long, swapped := a, b, false
	if len(a) > len(b) {
		short, long, swapped = b, a, true
	}
	swap := func(in uint8) uint8 { return in>>1 | in<<1&inB }
	for r := range ys {
		if only >= 0 && r != only {
			continue
		}
		y, in := ys[r], ins[r]
		inShort := in
		if swapped {
			inShort = swap(in)
		}
		upY, upIn := selectUp(short, long, st, both, r)
		downY, downIn := selectDown(short, long, st, both, n-1-r)
		nthY, nthIn := selectNth(a, b, st, both, r, n)
		revY, revIn := selectNth(b, a, st, both, r, n)
		for _, w := range []struct {
			name   string
			y      int32
			in, ok uint8
		}{
			{"up", upY, upIn, inShort},
			{"down", downY, downIn, inShort},
			{"selectNth", nthY, nthIn, in},
			{"selectNth reversed", revY, revIn, swap(in)},
		} {
			if w.y != y || w.in != w.ok {
				t.Fatalf("%s st=%v both=%v r=%d of %d: %s = %d (membership %02b), want %d (%02b)",
					name, st, both, r, n, w.name, w.y, w.in, y, w.ok)
			}
		}
	}
}

// TestTransitionsMatchReference checks every transition a walk could take
// from the states it visits, not only the one it took: for each state of a
// seeded non-backtracking walk, its record (derived by the walk's own
// transition) must equal the record computed from scratch — what a fresh
// space's infoOf returns — and for every index r below its degree,
// nthNeighbor must draw referenceNeighbors(st)[r] together with that state's
// from-scratch record. It runs d = 3 and d = 4 over free clients (d = 3
// counts by the closed form) and crawl clients (counts by the merge), on a
// Barabási–Albert graph, a clustered Holme–Kim graph and the hub fixture of
// TestKernelMatchesReferenceOnHubs.
func TestTransitionsMatchReference(t *testing.T) {
	for _, fx := range []struct {
		name   string
		g      *graph.Graph
		states [2]int // walk states checked at d = 3 and d = 4
	}{
		{"ba", gen.BarabasiAlbert(3000, 4, 3), [2]int{80, 12}},
		{"hk", gen.HolmeKim(2000, 4, 0.6, 5), [2]int{80, 12}},
		{"hubs", gen.BarabasiAlbert(1500, 3, 108), [2]int{80, 12}},
	} {
		for di, d := range []int{3, 4} {
			for _, crawl := range []bool{false, true} {
				var c access.Client = access.NewGraphClient(fx.g)
				if crawl {
					c = access.NewCounting(c, fx.g.NumNodes())
				}
				name := fmt.Sprintf("%s d=%d crawl=%v", fx.name, d, crawl)
				sp := newSpaceD(c, d)
				if (sp.cc == nil) != crawl {
					t.Fatalf("%s: client capability does not match the row", name)
				}
				w := New(sp, true, rand.New(rand.NewSource(int64(17+d))))
				w.Burn(50)
				for n := 0; n < fx.states[di]; n++ {
					st := w.Step()
					fi := sp.infoOf(st)
					if want := sp.record(st); fi != want {
						t.Fatalf("%s %v: walk-derived record %+v, want %+v", name, st, fi, want)
					}
					want := referenceNeighbors(c, st)
					if int(fi.deg) != len(want) {
						t.Fatalf("%s %v: degree %d, want %d", name, st, fi.deg, len(want))
					}
					for r := range want {
						next, nf := sp.nthNeighbor(st, fi, int32(r))
						if next != want[r] {
							t.Fatalf("%s %v: neighbor %d = %v, want %v", name, st, r, next, want[r])
						}
						if rec := sp.record(next); nf != rec {
							t.Fatalf("%s %v -> %v (r=%d): derived record %+v, want %+v", name, st, next, r, nf, rec)
						}
					}
				}
			}
		}
	}
}

// TestRecordRing checks the record ring every lookup goes through. It walks
// a d = 3 and a d = 4 space over a crawl client and, at each step, looks up
// a state visited long ago, the last three window states and the current
// state. A state among the last ringCap records kept must be served from the
// ring, with no client call; any other is counted from scratch and kept.
// Either way the record must equal the one a fresh space computes.
func TestRecordRing(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 9)
	for _, d := range []int{3, 4} {
		c := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
		sp, fresh := newSpaceD(c, d), newSpaceD(access.NewGraphClient(g), d)
		var kept, visited []State // kept: every record put in the ring, oldest first
		hits, misses := 0, 0
		lookup := func(st State) {
			before := c.Stats()
			fi := sp.infoOf(st)
			called := c.Stats() != before
			if slices.Contains(kept[max(0, len(kept)-ringCap):], st) {
				hits++
				if called {
					t.Fatalf("d=%d %v: one of the last %d records kept, but the lookup called the client", d, st, ringCap)
				}
			} else {
				misses++
				if !called {
					t.Fatalf("d=%d %v: not among the last %d records kept, but served without a client call", d, st, ringCap)
				}
				kept = append(kept, st)
			}
			if want := fresh.record(st); fi != want {
				t.Fatalf("d=%d %v: record %+v, want %+v", d, st, fi, want)
			}
		}
		rng := rand.New(rand.NewSource(int64(d)))
		cur := sp.RandomState(rng)
		for step := 0; step < 400; step++ {
			if len(visited) > 50 && step%3 == 0 {
				lookup(visited[rng.Intn(len(visited)-50)])
			}
			for back := min(3, len(visited)); back > 0; back-- {
				lookup(visited[len(visited)-back])
			}
			lookup(cur)
			visited = append(visited, cur)
			cur = sp.RandomNeighbor(cur, rng)
			kept = append(kept, cur)
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("d=%d: %d hits and %d misses, want both", d, hits, misses)
		}
	}
}

// FuzzSelectNth compares both scan directions of the d=3 selection, and
// selectNth with either row first, with a plain merge. The input is a flag
// byte (bit 0: intersection), two bytes of r (taken modulo the set's size)
// and a value stream: each byte advances the current value by 1 + byte>>3
// and puts it in the first row (bit 0), the second row (bit 1) and among the
// state's members (bit 2, up to three).
func FuzzSelectNth(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 3, 3, 3, 10, 11, 3, 6, 7, 2, 2, 2})
	f.Add([]byte{0, 0, 9, 2, 2, 2, 7, 2, 2, 6, 2, 1, 2, 2, 5, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		both := data[0]&1 != 0
		r := int(data[1])<<8 | int(data[2])
		var a, b, members []int32
		v := int32(0)
		for _, x := range data[3:] {
			v += 1 + int32(x>>3)
			if x&1 != 0 {
				a = append(a, v)
			}
			if x&2 != 0 {
				b = append(b, v)
			}
			if x&4 != 0 && len(members) < 3 {
				members = append(members, v)
			}
		}
		var st State
		if len(members) > 0 {
			st = StateOf(members...)
		}
		ys, _ := mergeSelect(a, b, st, both)
		n := len(ys)
		if n == 0 {
			return
		}
		checkSelect(t, "fuzz", a, b, st, both, r%n)
	})
}
