package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/graphlet"
	"repro/internal/walk"
)

// hashedDegreeSpace is a walk.Space whose StateDegree is a pseudo-random
// function of the state's nodes, so that every chain of a code multiplies
// different factors and a reordered product or sum shows in the low bits.
// Only StateDegree is reachable from the CSS weight.
type hashedDegreeSpace struct{ walk.Space }

func (hashedDegreeSpace) StateDegree(s walk.State) int {
	h := uint32(2166136261)
	for i := 0; i < s.Len(); i++ {
		h = (h ^ uint32(s.Node(i))) * 16777619
	}
	return 1 + int(h>>7)%9973
}

// TestSamplingProbabilityTableMatchesEnumerator: for every connected code of
// every (k, d) with l > 2, NB on and off, the table-driven step-path weight
// equals the generic enumerator's to the bit.
func TestSamplingProbabilityTableMatchesEnumerator(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	space := hashedDegreeSpace{}
	for k := 3; k <= graphlet.MaxK; k++ {
		pairs := graphlet.Pairs(k)
		for d := 1; k-d+1 > 2; d++ {
			chains := graphlet.Chains(k, d)
			checked := 0
			for code := uint16(0); int(code) < 1<<uint(len(pairs)); code++ {
				if graphlet.ClassifyCode(k, code) < 0 {
					continue
				}
				var adj [graphlet.MaxK][graphlet.MaxK]bool
				for bit, p := range pairs {
					if code&(1<<uint(bit)) != 0 {
						adj[p[0]][p[1]], adj[p[1]][p[0]] = true, true
					}
				}
				hasEdge := func(i, j int) bool { return adj[i][j] }
				// k distinct node ids in no particular order, as a window's
				// first-appearance union is.
				nodes := make([]int32, k)
				for i, j := range rng.Perm(k) {
					nodes[i] = int32(j)<<20 | rng.Int31n(1<<20)
				}
				for _, nb := range []bool{false, true} {
					want := enumeratedSamplingProbability(space, k, d, nb, nodes, hasEdge)
					got := samplingProbabilityWith(space, chains, nb, nodes, code)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d d=%d nb=%v code=%#x: table %v (%#x), enumerator %v (%#x)",
							k, d, nb, code, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				checked++
			}
			if checked == 0 {
				t.Errorf("k=%d d=%d: no connected code checked", k, d)
			}
		}
	}
}

// hashResults folds the accumulators of the results into one FNV-64a value.
func hashResults(rs ...*Result) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rs {
		put(uint64(r.Steps))
		put(uint64(r.ValidSamples))
		for _, w := range r.Weights {
			put(math.Float64bits(w))
		}
		for _, c := range r.TypeCounts {
			put(uint64(c))
		}
	}
	return h.Sum64()
}

// TestCSSResultsMatchRecordedHashes pins the estimates to the bit. The CSS
// hashes were recorded from the commit before the chain tables replaced the
// per-window enumeration (PR 14's parent, 23e99fa), over the four CSS slots
// of the benchmark's M6 job mix at 200k windows; the plain rows (M6's two d=3
// slots and its d=1 slot — the test's name predates them) from the commit
// before the d=3 short-row selection and the d=1 traversed-edge marking
// (17fcc8c).
func TestCSSResultsMatchRecordedHashes(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 21))
	const windows = 200000
	for _, tc := range []struct {
		cfg  MultiConfig
		want uint64
	}{
		{MultiConfig{Sizes: []int{3}, D: 1, CSS: true, NB: true, Walkers: 2, Seed: 14}, 0xdd66921f62d0c652},
		{MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 2, Seed: 14}, 0xa4874d5c299c5d85},
		{MultiConfig{Sizes: []int{5}, D: 2, CSS: true, Walkers: 2, Seed: 14}, 0x80ffd64d09cc2de1},
		// The remaining (k, d) tables, outside M6.
		{MultiConfig{Sizes: []int{4}, D: 1, CSS: true, Walkers: 2, Seed: 14}, 0x1895ed054a44cd37},
		{MultiConfig{Sizes: []int{5}, D: 1, CSS: true, Walkers: 2, Seed: 14}, 0x34a3513999bc868b},
		{MultiConfig{Sizes: []int{5}, D: 3, CSS: true, NB: true, Walkers: 2, Seed: 14}, 0x6be28814a41f7659},
		// The plain M6 slots: d=3 (kernel selection) and d=1.
		{MultiConfig{Sizes: []int{4}, D: 3, Walkers: 2, Seed: 14}, 0x429b370f3412e85f},
		{MultiConfig{Sizes: []int{5}, D: 3, NB: true, Walkers: 2, Seed: 14}, 0xf842f69fda6f4631},
		{MultiConfig{Sizes: []int{3}, D: 1, Walkers: 2, Seed: 14}, 0x491359ba75974e1c},
	} {
		t.Run(fmt.Sprintf("%s_k%d", tc.cfg.MethodName(), tc.cfg.Sizes[0]), func(t *testing.T) {
			if got := hashResults(runSize(t, client, tc.cfg, windows)); got != tc.want {
				t.Errorf("result hash %#x, recorded %#x", got, tc.want)
			}
		})
	}
	t.Run("sizes345_SRW2CSS", func(t *testing.T) {
		const want = uint64(0x9e1688b295ccfc64)
		cfg := MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 2, Seed: 14}
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := est.Run(windows)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashResults(res.Results[3], res.Results[4], res.Results[5]); got != want {
			t.Errorf("result hash %#x, recorded %#x", got, want)
		}
	})
}
