package graphlet

import (
	"fmt"
	"sync"
)

// ChainTable is Algorithm 3's chain enumeration compiled for one (k, d) with
// l = k-d+1 > 2: for every k-node adjacency code it holds the interior states
// (chain positions 1..l-2, the only ones whose degree enters the CSS weight)
// of every chain EnumerateChains emits for that code, in emission order. The
// chain set is a pure function of (k, d, code), so the estimator's step path
// reads it here instead of re-enumerating per window; keeping the emission
// order keeps the floating-point sum over chains bit-identical to a direct
// EnumerateChains pass, which stays the builder and the oracle.
type ChainTable struct {
	// Interior is l-2, the number of interior states per chain.
	Interior int

	off   []uint32 // masks[off[code]:off[code+1]] holds code's chains
	masks []uint8  // node-index bitmasks, Interior per chain
}

// Interiors returns the interior-state node masks of every chain of the
// adjacency code, t.Interior consecutive masks per chain. It is empty for a
// disconnected code and for a connected one the walk on G(d) cannot traverse
// (α = 0). The slice is shared and must not be modified.
func (t *ChainTable) Interiors(code uint16) []uint8 {
	return t.masks[t.off[code]:t.off[code+1]]
}

var chainTables [MaxK + 1][MaxK + 1]struct {
	once sync.Once
	t    *ChainTable
}

// Chains returns the chain table of (k, d), building it on first use. Only
// l = k-d+1 > 2 has interior states; any other (k, d) panics.
func Chains(k, d int) *ChainTable {
	info := ki(k)
	if d < 1 || k-d+1 <= 2 {
		panic(fmt.Sprintf("graphlet: Chains: no interior states for k=%d d=%d", k, d))
	}
	e := &chainTables[k][d]
	e.once.Do(func() { e.t = buildChainTable(info, d) })
	return e.t
}

func buildChainTable(info *kinfo, d int) *ChainTable {
	k := info.k
	l := k - d + 1
	t := &ChainTable{Interior: l - 2, off: make([]uint32, len(info.classify)+1)}
	for code := range info.classify {
		if info.classify[code] >= 0 {
			adj := makeGraphlet(info, uint16(code)).Adj
			EnumerateChains(k, d, func(i, j int) bool { return adj[i][j] }, func(chain []uint8) bool {
				t.masks = append(t.masks, chain[1:l-1]...)
				return true
			})
		}
		t.off[code+1] = uint32(len(t.masks))
	}
	return t
}
