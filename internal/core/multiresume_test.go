package core

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/walk"
)

// TestMultiByteIdenticalPerSize is the work-sharing soundness proof: a
// shared-walk multi-size run produces, for every target size k, a Result
// byte-identical to a MultiEstimator configured with that size alone — same
// seed, same walker split. This is what lets the service fan a finished multi-size job out into the result
// cache as one entry per size: the cached entries are bit-for-bit what the
// single-size jobs would have computed.
func TestMultiByteIdenticalPerSize(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	const n = 3000
	for _, cfg := range []MultiConfig{
		{Sizes: []int{3, 4, 5}, D: 2, Seed: 11, Walkers: 1},
		{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 42, Walkers: 4},
		{Sizes: []int{4, 5}, D: 3, CSS: true, NB: true, Seed: 7, Walkers: 3},
		{Sizes: []int{5, 3, 4}, D: 2, Seed: 23, Walkers: 2}, // order must not matter
		{Sizes: []int{3, 4}, D: 2, NB: true, Seed: 99, Walkers: 8},
	} {
		multi, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := multi.Run(n)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Sizes, err)
		}
		if got.Steps != n {
			t.Errorf("%v: merged Steps = %d, want %d", cfg.Sizes, got.Steps, n)
		}
		for _, k := range cfg.Sizes {
			// Solo run for k alone.
			soloCfg := cfg
			soloCfg.Sizes = []int{k}
			solo, err := NewMultiEstimator(client, soloCfg)
			if err != nil {
				t.Fatal(err)
			}
			soloRes, err := solo.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results[k], soloRes.Results[k]) {
				t.Errorf("sizes=%v d=%d k=%d: shared-walk result differs from solo multi run:\n got %+v\nwant %+v",
					cfg.Sizes, cfg.D, k, got.Results[k], soloRes.Results[k])
			}
		}
	}
}

// TestMultiResumeByteIdentical mirrors TestResumeByteIdentical for the
// multi-size engine: snapshot at a mid-run checkpoint barrier, encode,
// decode, restore into a fresh MultiEstimator, run to completion — every
// size's Result must be byte-identical to the uninterrupted run's.
func TestMultiResumeByteIdentical(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	const n, every, interruptAt = 4000, 500, 2000
	for _, cfg := range []MultiConfig{
		{Sizes: []int{3, 4, 5}, D: 2, Seed: 17, Walkers: 1},
		{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 99, Walkers: 4},
		{Sizes: []int{4, 5}, D: 3, CSS: true, NB: true, Seed: 7, Walkers: 8},
		{Sizes: []int{3, 5}, D: 2, Seed: 31, Walkers: 3},
	} {
		full, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		want, err := full.RunCheckpointsCtx(t.Context(), n, every, func(cp *EnsembleState) {
			if cp.WindowsDone == interruptAt {
				blob = cp.Encode()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if blob == nil {
			t.Fatalf("sizes=%v: no snapshot captured", cfg.Sizes)
		}

		st, err := DecodeEnsembleState(blob)
		if err != nil {
			t.Fatalf("sizes=%v: decode: %v", cfg.Sizes, err)
		}
		if st.WindowsDone != interruptAt {
			t.Fatalf("sizes=%v: snapshot at %d windows, want %d", cfg.Sizes, st.WindowsDone, interruptAt)
		}
		resumed, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(st); err != nil {
			t.Fatalf("sizes=%v: restore: %v", cfg.Sizes, err)
		}
		got, err := resumed.RunCheckpointsCtx(t.Context(), n, every, func(*EnsembleState) {})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sizes=%v: resumed result differs from uninterrupted run:\n got %+v\nwant %+v",
				cfg.Sizes, got, want)
		}
	}
}

// A multi-size snapshot taken at the final barrier resumes to an immediately
// complete run.
func TestMultiResumeAtFullBudget(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	cfg := MultiConfig{Sizes: []int{3, 4}, D: 2, Seed: 5, Walkers: 2}
	est, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	st := est.Snapshot()
	re, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Restore(st); err != nil {
		t.Fatal(err)
	}
	got, err := re.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero-remaining resume diverged:\n got %+v\nwant %+v", got, want)
	}
}

// Restore copies the state into the walkers' own memory: overwriting every
// slice of the restored EnsembleState afterwards must not reach the resumed
// run, which stays bit-equal to the uninterrupted one. (The walk position
// is held as walk.State values, which cannot alias.)
func TestRestoreDoesNotAliasState(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	cfg := MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 13, Walkers: 2}
	const n, every, interruptAt = 4000, 500, 2000
	full, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st *EnsembleState
	want, err := full.RunCheckpointsCtx(t.Context(), n, every, func(cp *EnsembleState) {
		if cp.WindowsDone == interruptAt {
			st = cp
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := range st.Walkers {
		ws := &st.Walkers[i]
		for _, a := range ws.Accs {
			for j := range a.Weights {
				a.Weights[j] = -1
				a.TypeCounts[j] = -1
			}
		}
		for j := range ws.Win {
			ws.Win[j] = walk.State{}
		}
		for j := range ws.Degs {
			ws.Degs[j] = -1
		}
	}
	got, err := re.RunCheckpointsCtx(t.Context(), n, every, func(*EnsembleState) {})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run read the restored state's slices:\n got %+v\nwant %+v", got, want)
	}
}

// Multi restore validation: config mismatches and structurally impossible
// states are rejected with errors, never panics.
func TestMultiRestoreValidation(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	cfg := MultiConfig{Sizes: []int{3, 4}, D: 2, Seed: 9, Walkers: 2}
	est, err := NewMultiEstimator(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Run(600); err != nil {
		t.Fatal(err)
	}
	good := est.Snapshot()

	fresh := func() *MultiEstimator {
		e, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if err := fresh().Restore(nil); err == nil {
		t.Error("nil state accepted")
	}
	other := *good
	other.Config.Seed++
	if err := fresh().Restore(&other); err == nil {
		t.Error("seed mismatch accepted")
	}
	other = *good
	other.Config.Sizes = []int{3, 5}
	if err := fresh().Restore(&other); err == nil {
		t.Error("sizes mismatch accepted")
	}
	short := *good
	short.Walkers = good.Walkers[:1]
	if err := fresh().Restore(&short); err == nil {
		t.Error("walker-count mismatch accepted")
	}
	skew := *good
	skew.Walkers = append([]WalkerState(nil), good.Walkers...)
	skew.Walkers[0].Accs = append([]SizeAcc(nil), good.Walkers[0].Accs...)
	skew.Walkers[0].Accs[0].Done++
	if err := fresh().Restore(&skew); err == nil {
		t.Error("quota-inconsistent state accepted")
	}
	e := fresh()
	if err := e.Restore(good); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(100); err == nil {
		t.Error("restored state beyond the budget accepted")
	}
}

// Decoding truncated and bit-flipped multi snapshots errors instead of
// panicking, and a valid blob round-trips exactly.
func TestMultiStateDecodeRobust(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 3, Walkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Run(800); err != nil {
		t.Fatal(err)
	}
	blob := est.Snapshot().Encode()

	st, err := DecodeEnsembleState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Encode(), blob) {
		t.Error("encode/decode/encode is not a fixed point")
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeEnsembleState(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	if _, err := DecodeEnsembleState(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Error("trailing garbage decoded cleanly")
	}
}
