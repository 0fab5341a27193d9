package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// FuzzWindowCode checks the adjacency the ring carries across walk positions
// against the stateless reference. The input gives a small graph (a path
// through every node, so every G(d) has states, plus the input's edges), a
// configuration and a seed. A walker walks it; before every push, each size
// classifies zero or more of its ready windows, chosen by the input's
// schedule seed — so sizes stand at different positions of the ring, as the
// lazy multi-size schedule leaves them after a checkpoint — and a window
// about to leave the ring is always classified. Every window's carried code
// must equal graphlet.CodeOf over client.HasEdge on the window's nodes in
// first-appearance order, and its type and weight must equal the reference
// weight to the bit: 1/enumeratedSamplingProbability under CSS, 1/(α·π̃e)
// otherwise. Midway the walker may be snapshotted and restored into a fresh
// one, whose ring starts with empty masks.
func FuzzWindowCode(f *testing.F) {
	f.Add([]byte{10, 0x07 | 0x08, 1, 3, 20, 1, 0, 2, 1, 3, 2, 4, 0, 5, 3, 7})
	f.Add([]byte{14, 0x06 | 0x08, 0, 5, 33, 2, 0, 3, 0, 4, 1, 5, 2, 6, 0, 7, 3, 8, 1, 9})
	f.Add([]byte{8, 0x07 | 0x08 | 0x10, 1, 9, 0, 3, 0, 2, 0, 3, 0, 4, 1, 3, 2, 5})
	f.Add([]byte{12, 0x04, 2, 1, 17, 4, 0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 0, 11})
	f.Add([]byte{9, 0x03 | 0x10, 0, 7, 12, 5, 0, 4, 2, 6, 1, 8, 3, 5})
	f.Add([]byte{16, 0x05 | 0x08, 1, 2, 40, 6, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 6 + int(data[0]%20)
		var cfg MultiConfig
		for i, k := range []int{3, 4, 5} {
			if data[1]&(1<<i) != 0 {
				cfg.Sizes = append(cfg.Sizes, k)
			}
		}
		if len(cfg.Sizes) == 0 {
			cfg.Sizes = []int{3}
		}
		cfg.D = 1 + int(data[2])%cfg.Sizes[0]
		cfg.CSS, cfg.NB = data[1]&0x08 != 0, data[1]&0x10 != 0
		seed := int64(data[3])
		restoreAt := int(data[4]) % 64
		sched := rand.New(rand.NewSource(int64(data[5])))

		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(int32(v-1), int32(v))
		}
		for e := data[6:]; len(e) >= 2; e = e[2:] {
			b.AddEdge(int32(int(e[0])%n), int32(int(e[1])%n))
		}
		client := access.NewGraphClient(b.Build())
		ref := walk.NewSpace(client, cfg.D)

		wk := newWalker(client, cfg, seed)
		wk.start()
		for pass := range 64 {
			if pass == restoreAt {
				re := newWalker(client, cfg, seed)
				if err := re.restore(wk.snapshot()); err != nil {
					t.Fatal(err)
				}
				wk = re
			}
			r := &wk.ring
			for i := range wk.sizes {
				s, a := &wk.sizes[i], &wk.accs[i]
				for a.Done+s.l <= r.pushed && (a.Done <= r.pushed-r.maxL || sched.Intn(2) == 0) {
					checkWindow(t, wk, ref, s, a.Done)
					a.Done++
				}
			}
			from := wk.w.Current()
			wk.push(wk.w.Step(), from)
		}
	})
}

// checkWindow classifies size s's window [j, j+s.l) through the walker's
// ring and compares it with the stateless reference.
func checkWindow(t *testing.T, wk *walker, ref walk.Space, s *sizeParams, j int) {
	t.Helper()
	states, degs := wk.ring.window(j, s.l)
	states, degs = slices.Clone(states), slices.Clone(degs)
	var nodes []int32
	for _, st := range states {
		for i := range st.Len() {
			if x := st.Node(i); !slices.Contains(nodes, x) {
				nodes = append(nodes, x)
			}
		}
	}
	hasEdge := func(a, b int) bool { return wk.client.HasEdge(nodes[a], nodes[b]) }

	code, ok := wk.ring.windowCode(wk.client, s.k, j, s.l)
	if ok != (len(nodes) == s.k) {
		t.Fatalf("k=%d window %d %v: %d nodes, carried code valid=%v", s.k, j, states, len(nodes), ok)
	}
	typ, weight, err := wk.ring.windowSample(wk.client, wk.space, s, wk.cfg.NB, j)
	if err != nil {
		t.Fatalf("k=%d window %d %v: %v", s.k, j, states, err)
	}
	if !ok {
		if typ != -1 {
			t.Fatalf("k=%d window %d %v of %d nodes sampled as type %d", s.k, j, states, len(nodes), typ)
		}
		return
	}
	if want := graphlet.CodeOf(s.k, hasEdge); code != want {
		t.Fatalf("k=%d window %d %v (nodes %v): carried code %#x, probed %#x", s.k, j, states, nodes, code, want)
	}
	wantTyp := graphlet.ClassifyCode(s.k, code)
	var want float64
	if s.chains != nil {
		want = 1 / enumeratedSamplingProbability(ref, s.k, wk.cfg.D, wk.cfg.NB, nodes, hasEdge)
	} else {
		want = 1 / (float64(s.alpha[wantTyp]) * pieTilde(wk.cfg.NB, degs))
	}
	if typ != wantTyp || math.Float64bits(weight) != math.Float64bits(want) {
		t.Fatalf("k=%d window %d %v: type %d weight %v (%#x), reference type %d weight %v (%#x)",
			s.k, j, states, typ, weight, math.Float64bits(weight), wantTyp, want, math.Float64bits(want))
	}
}
