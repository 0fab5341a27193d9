// Partitioned execution: the helpers that let one estimation run span many
// machines and still produce bytes identical to a local run.
//
// The unit of distribution is a contiguous walker range [lo, hi) of the
// ensemble (NewPartitionMultiEstimator, or NewPartitionEstimator for the
// one-size view). A partition snapshots exactly like a full run — its
// EnsembleState carries the full MultiConfig and the global checkpoint
// target, just a subset of the walker states — so the state codec is the
// wire format. A coordinator stitches partition states back together with
// CombinePartitionStates (validating order and quotas) and extracts the
// merged result with MergedResult, which sums the per-walker accumulators in
// global walker-index order — the exact float addition sequence a live run
// performs locally. Merging per-partition pre-merged Results instead would
// NOT be byte-identical: float addition is not associative, so the
// per-walker accumulators must cross the wire.

package core

import "fmt"

// PartitionWindows returns how many of the first `total` windows walkers
// [lo, hi) of a `walkers`-walker ensemble own together — the walk progress a
// partition snapshot at target `total` represents (used for resumed-step
// accounting when a partition fails over from its last snapshot).
func PartitionWindows(total, walkers, lo, hi int) int {
	w := walkerCount(walkers)
	sum := 0
	for i := lo; i < hi && i < w; i++ {
		sum += walkerQuota(total, w, i)
	}
	return sum
}

// Slice extracts the partition [lo, hi) of a full-ensemble state, the resume
// blob for re-dispatching that partition after a coordinator restart. The
// receiver must be a full state (one walker state per configured walker);
// the returned state shares the receiver's walker slices and must be treated
// as read-only.
func (st *EnsembleState) Slice(lo, hi int) (*EnsembleState, error) {
	w := walkerCount(st.Config.Walkers)
	if len(st.Walkers) != w {
		return nil, fmt.Errorf("core: slice of partial ensemble state (%d walker states, ensemble has %d)", len(st.Walkers), w)
	}
	if lo < 0 || hi > w || lo >= hi {
		return nil, fmt.Errorf("core: partition [%d,%d) out of range for %d walkers", lo, hi, w)
	}
	return &EnsembleState{Config: st.Config, WindowsDone: st.WindowsDone, Walkers: st.Walkers[lo:hi]}, nil
}

// CombinePartitionStates stitches per-partition states — ordered by first
// walker index, contiguous, jointly covering every walker — back into the
// full ensemble state. All partitions must have been captured under the same
// MultiConfig at the same checkpoint target; every size's window count of
// each walker must match the quota of the global index it lands on, which
// rejects missing, duplicated, and (in general) misordered partitions.
func CombinePartitionStates(parts []*EnsembleState) (*EnsembleState, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partition states to combine")
	}
	first := parts[0]
	if first == nil {
		return nil, fmt.Errorf("core: nil partition state 0")
	}
	w := walkerCount(first.Config.Walkers)
	out := &EnsembleState{
		Config:      first.Config,
		WindowsDone: first.WindowsDone,
		Walkers:     make([]WalkerState, 0, w),
	}
	for pi, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("core: nil partition state %d", pi)
		}
		if !p.Config.equal(first.Config) {
			return nil, fmt.Errorf("core: partition %d captured under config %+v, partition 0 under %+v", pi, p.Config, first.Config)
		}
		if p.WindowsDone != first.WindowsDone {
			return nil, fmt.Errorf("core: partition %d at checkpoint target %d, partition 0 at %d", pi, p.WindowsDone, first.WindowsDone)
		}
		for i := range p.Walkers {
			gi := len(out.Walkers) // global index this walker state lands on
			if err := p.Walkers[i].checkQuota(walkerQuota(p.WindowsDone, w, gi)); err != nil {
				return nil, fmt.Errorf("core: combined walker %d at target %d: %w (partitions missing or out of order?)",
					gi, p.WindowsDone, err)
			}
			out.Walkers = append(out.Walkers, p.Walkers[i])
		}
	}
	if len(out.Walkers) != w {
		return nil, fmt.Errorf("core: partitions cover %d walkers, ensemble has %d", len(out.Walkers), w)
	}
	return out, nil
}

// MergedResult computes the merged per-size Results of the walker states the
// snapshot carries, summing accumulators in walker-index order — the
// identical float addition sequence a live run performs (addWalker), so for
// a full-ensemble state (local or combined from partitions) every Result is
// byte-identical to what the live run returns at the same checkpoint target.
func (st *EnsembleState) MergedResult() (*MultiResult, error) {
	// A decoded state may carry any config; an invalid one (sizes out of
	// range, star recovery on a size without the star types) has no merge.
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: merged result: %w", err)
	}
	sums, steps := newSums(st.Config), 0
	for i := range st.Walkers {
		w := &st.Walkers[i]
		if len(w.Accs) != len(sums) {
			return nil, fmt.Errorf("core: merged result: walker %d has %d size accumulators, want %d",
				i, len(w.Accs), len(sums))
		}
		for j := range w.Accs {
			if a, nt := &w.Accs[j], len(sums[j].Weights); len(a.Weights) != nt || len(a.TypeCounts) != nt {
				return nil, fmt.Errorf("core: merged result: walker %d size %d accumulator has %d/%d types, want %d",
					i, st.Config.Sizes[j], len(a.Weights), len(a.TypeCounts), nt)
			}
		}
		steps += addWalker(sums, w.Accs, w.StarAcc)
	}
	return newMultiResult(st.Config.Sizes, sums, steps), nil
}
