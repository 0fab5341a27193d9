package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// span is the address range [lo, hi) of an object or a slice's backing array.
type span struct{ lo, hi uintptr }

func spanOf[T any](p *T) span {
	lo := uintptr(unsafe.Pointer(p))
	return span{lo, lo + unsafe.Sizeof(*p)}
}

func sliceSpan[T any](s []T) span {
	var zero T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero)}
}

// lines is the range of cacheLine-sized lines the span touches, inclusive.
func (s span) lines() (first, last uintptr) { return s.lo / cacheLine, (s.hi - 1) / cacheLine }

// checkArenas asserts the walker arena's one-line rule over an ensemble:
// everything a walker writes per step lies inside its own walker allocation,
// and no two walkers touch a common cache line.
func checkArenas(t *testing.T, when string, ws []*walker) {
	t.Helper()
	arenas := make([]span, len(ws))
	for i, wk := range ws {
		arena := spanOf(wk)
		arenas[i] = arena
		views := map[string]span{
			"walk":  spanOf(&wk.w),
			"rng":   spanOf(&wk.rng), // the draw counter is held by value inside it
			"ring":  spanOf(&wk.win),
			"degs":  spanOf(&wk.degs),
			"nodes": spanOf(&wk.nodes),
			"accs":  sliceSpan(wk.accs),
		}
		for j := range wk.accs {
			views[fmt.Sprintf("weights[%d]", j)] = sliceSpan(wk.accs[j].Weights)
			views[fmt.Sprintf("typecounts[%d]", j)] = sliceSpan(wk.accs[j].TypeCounts)
		}
		for name, v := range views {
			if v.lo < arena.lo || v.hi > arena.hi {
				t.Errorf("%s: walker %d: %s [%#x, %#x) lies outside its walker [%#x, %#x)",
					when, i, name, v.lo, v.hi, arena.lo, arena.hi)
			}
		}
	}
	for i := range arenas {
		for j := i + 1; j < len(arenas); j++ {
			af, al := arenas[i].lines()
			bf, bl := arenas[j].lines()
			if af <= bl && bf <= al {
				t.Errorf("%s: walkers %d and %d share a cache line: lines [%#x, %#x] and [%#x, %#x]",
					when, i, j, af, al, bf, bl)
			}
		}
	}
}

// TestWalkersShareNoCacheLine pins the one-line rule for every M6 method at
// W=8: on a fresh ensemble, after a second Run (which resets every walker),
// after Restore, and on a partition.
func TestWalkersShareNoCacheLine(t *testing.T) {
	if want := graphlet.Count(3) + graphlet.Count(4) + graphlet.Count(5); maxTypes != want {
		t.Fatalf("maxTypes = %d, want %d", maxTypes, want)
	}
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 21))
	for _, cfg := range []MultiConfig{
		MultiConfig{Sizes: []int{3}, D: 1, CSS: true, NB: true},
		MultiConfig{Sizes: []int{4}, D: 2, CSS: true},
		MultiConfig{Sizes: []int{5}, D: 2, CSS: true},
		MultiConfig{Sizes: []int{4}, D: 3},
		MultiConfig{Sizes: []int{5}, D: 3, NB: true},
		{Sizes: []int{3, 4, 5}, D: 2, CSS: true},
	} {
		cfg.Walkers, cfg.Seed = 8, 5
		name := cfg.sizeConfig(0).MethodName() + "_k"
		for _, k := range cfg.Sizes {
			name += fmt.Sprint(k)
		}
		t.Run(name, func(t *testing.T) {
			m, err := NewMultiEstimator(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkArenas(t, "fresh", m.walkers)
			for range 2 {
				if _, err := m.Run(400); err != nil {
					t.Fatal(err)
				}
			}
			checkArenas(t, "second run", m.walkers)

			re, err := NewMultiEstimator(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.Restore(m.Snapshot()); err != nil {
				t.Fatal(err)
			}
			checkArenas(t, "restored", re.walkers)

			p, err := NewPartitionMultiEstimator(client, cfg, 2, 6)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(400); err != nil {
				t.Fatal(err)
			}
			checkArenas(t, "partition", p.walkers)
		})
	}
}

// A window's node collection stops at k+1 distinct nodes, so it stays in the
// walker's fixed scratch even over a ring no walk could produce — a restored
// state is not checked for adjacency, and three disjoint d=3 states would
// otherwise gather 9 nodes.
func TestWindowScratchBounded(t *testing.T) {
	wk := newWalker(access.NewGraphClient(gen.BarabasiAlbert(200, 4, 21)), MultiConfig{Sizes: []int{5}, D: 3}, 1)
	wk.win[0] = walk.StateOf(0, 1, 2)
	wk.win[1] = walk.StateOf(3, 4, 5)
	wk.win[2] = walk.StateOf(6, 7, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if err := wk.accumulate(&wk.sizes[0], &wk.accs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per 9-node window, want 0", allocs)
	}
	if got := wk.accs[0].ValidSamples; got != 0 {
		t.Errorf("%d valid samples from 9-node windows, want 0", got)
	}
}
