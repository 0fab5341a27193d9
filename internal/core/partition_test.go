package core

import (
	"reflect"
	"testing"

	"repro/internal/access"
)

// partitionBounds splits W walkers into nParts contiguous ranges, the same
// even split the dist coordinator uses.
func partitionBounds(w, nParts int) [][2]int {
	if nParts > w {
		nParts = w
	}
	out := make([][2]int, nParts)
	for p := 0; p < nParts; p++ {
		out[p] = [2]int{p * w / nParts, (p + 1) * w / nParts}
	}
	return out
}

// TestPartitionByteIdentical is the distributed-execution correctness proof:
// running each partition [lo,hi) of the ensemble independently (in any
// split), combining the final partition snapshots, and merging per walker
// must reproduce the local full-ensemble Result bit for bit — for every
// accumulator variant.
func TestPartitionByteIdentical(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	const n = 3000
	for _, cfg := range []MultiConfig{
		{Sizes: []int{3}, D: 1, Seed: 17, Walkers: 1},
		{Sizes: []int{4}, D: 2, CSS: true, Seed: 99, Walkers: 4},
		{Sizes: []int{4}, D: 2, CSS: true, NB: true, Seed: 7, Walkers: 5},
		{Sizes: []int{4}, D: 1, RecoverStars: true, Seed: 31, Walkers: 3},
		{Sizes: []int{5}, D: 3, CSS: true, Seed: 23, Walkers: 4},
		{Sizes: []int{4}, D: 2, CSS: true, BurnIn: 150, Seed: 41, Walkers: 3},
	} {
		k := cfg.Sizes[0]
		full, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		live, err := full.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		want := live.Results[k]
		// The full local snapshot's merged result must equal the live one.
		if got, err := full.Snapshot().MergedResult(); err != nil {
			t.Fatalf("%s: merged result: %v", cfg.MethodName(), err)
		} else if !reflect.DeepEqual(got.Results[k], want) {
			t.Fatalf("%s: snapshot merged result differs from live result", cfg.MethodName())
		}
		for _, nParts := range []int{1, 2, 3} {
			var parts []*EnsembleState
			for _, b := range partitionBounds(walkerCount(cfg.Walkers), nParts) {
				est, err := NewPartitionMultiEstimator(client, cfg, b[0], b[1])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := est.Run(n); err != nil {
					t.Fatal(err)
				}
				// Round-trip through the wire codec, as the worker API does.
				st, err := DecodeEnsembleState(est.Snapshot().Encode())
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, st)
			}
			combined, err := CombinePartitionStates(parts)
			if err != nil {
				t.Fatalf("%s/%d parts: combine: %v", cfg.MethodName(), nParts, err)
			}
			got, err := combined.MergedResult()
			if err != nil {
				t.Fatalf("%s/%d parts: merge: %v", cfg.MethodName(), nParts, err)
			}
			if !reflect.DeepEqual(got.Results[k], want) {
				t.Errorf("%s/%d parts: distributed result differs from local run:\n got %+v\nwant %+v",
					cfg.MethodName(), nParts, got.Results[k], want)
			}
		}
	}
}

// TestPartitionResumeByteIdentical covers failover: a partition interrupted
// at a checkpoint restores from its own snapshot into a fresh partition
// estimator (possibly on another machine) and completes; the combined result
// must still match the local run exactly.
func TestPartitionResumeByteIdentical(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 12, Walkers: 5}
	const n, every, interruptAt = 3000, 500, 1500

	want := runSize(t, client, cfg, n)

	var parts []*EnsembleState
	for _, b := range partitionBounds(cfg.Walkers, 2) {
		est, err := NewPartitionMultiEstimator(client, cfg, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		if _, err := est.RunCheckpointsCtx(t.Context(), n, every, func(cp *EnsembleState) {
			if cp.WindowsDone == interruptAt {
				blob = cp.Encode()
			}
		}); err != nil {
			t.Fatal(err)
		}
		st, err := DecodeEnsembleState(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.WindowsDone, interruptAt; got != want {
			t.Fatalf("snapshot at target %d, want %d", got, want)
		}
		// Fail over: a fresh partition estimator restores the snapshot and
		// finishes the remaining budget.
		resumed, err := NewPartitionMultiEstimator(client, cfg, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(st); err != nil {
			t.Fatal(err)
		}
		if _, err := resumed.Run(n); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, resumed.Snapshot())
	}
	combined, err := CombinePartitionStates(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := combined.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results[4], want) {
		t.Errorf("failover-resumed distributed result differs from local run:\n got %+v\nwant %+v", got.Results[4], want)
	}
}

// TestMultiPartitionByteIdentical mirrors TestPartitionByteIdentical for the
// shared-walk multi-size engine, including a mid-run failover of one
// partition.
func TestMultiPartitionByteIdentical(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 41, Walkers: 4}
	const n, every, interruptAt = 2000, 500, 1000

	full, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := full.Snapshot().MergedResult(); err != nil {
		t.Fatalf("merged result: %v", err)
	} else if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot merged result differs from live result")
	}

	var parts []*EnsembleState
	for pi, b := range partitionBounds(cfg.Walkers, 3) {
		est, err := NewPartitionMultiEstimator(client, cfg, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		if _, err := est.RunCheckpointsCtx(t.Context(), n, every, func(cp *EnsembleState) {
			if cp.WindowsDone == interruptAt {
				blob = cp.Encode()
			}
		}); err != nil {
			t.Fatal(err)
		}
		if pi == 1 {
			// Fail this partition over from its mid-run snapshot.
			st, err := DecodeEnsembleState(blob)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := NewPartitionMultiEstimator(client, cfg, b[0], b[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(st); err != nil {
				t.Fatal(err)
			}
			if _, err := resumed.Run(n); err != nil {
				t.Fatal(err)
			}
			est = resumed
		}
		st, err := DecodeEnsembleState(est.Snapshot().Encode())
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, st)
	}
	combined, err := CombinePartitionStates(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := combined.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed multi result differs from local run:\n got %+v\nwant %+v", got, want)
	}
}

// TestSliceCombineRoundTrip pins the coordinator crash-recovery path: a full
// snapshot slices into per-partition resume blobs whose re-combination is
// the original state, and slicing a partial state is rejected.
func TestSliceCombineRoundTrip(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	cfg := MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 3, Walkers: 4}
	est, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	// 750 windows over 4 walkers is an uneven split (188,188,187,187), so the
	// misorder check below has quotas to disagree with.
	if _, err := est.RunCheckpointsCtx(t.Context(), 1000, 250, func(cp *EnsembleState) {
		if cp.WindowsDone == 750 {
			blob = cp.Encode()
		}
	}); err != nil {
		t.Fatal(err)
	}
	st, err := DecodeEnsembleState(blob)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*EnsembleState
	for _, b := range partitionBounds(cfg.Walkers, 3) {
		p, err := st.Slice(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Slice(0, 1); err == nil {
			t.Fatal("slice of a partial state must be rejected")
		}
		parts = append(parts, p)
	}
	back, err := CombinePartitionStates(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Errorf("slice+combine is not the identity")
	}

	// Misordered partitions must be rejected (quota mismatch) whenever the
	// split is uneven enough to detect it.
	if _, err := CombinePartitionStates([]*EnsembleState{parts[2], parts[1], parts[0]}); err == nil {
		t.Errorf("combining misordered partitions succeeded")
	}
}
