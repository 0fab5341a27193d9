package core

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/walk"
)

// TestResumeByteIdentical is the SIGKILL-semantics proof of the serializable
// state machine: capture a snapshot at a mid-run checkpoint barrier (exactly
// what the service journals), encode and decode it, restore it into a fresh
// estimator, run to completion — the result must be byte-identical to the
// uninterrupted run, for single- and multi-walker ensembles, every
// accumulator variant (plain, CSS, NB, RecoverStars) and a burnt-in walk.
func TestResumeByteIdentical(t *testing.T) {
	g := convGraph()
	client := access.NewGraphClient(g)
	const n, every, interruptAt = 4000, 500, 2000
	for _, cfg := range []MultiConfig{
		{Sizes: []int{3}, D: 1, Seed: 17, Walkers: 1},
		{Sizes: []int{4}, D: 2, CSS: true, Seed: 99, Walkers: 4},
		{Sizes: []int{4}, D: 2, CSS: true, NB: true, Seed: 7, Walkers: 8},
		{Sizes: []int{4}, D: 1, RecoverStars: true, Seed: 31, Walkers: 3},
		{Sizes: []int{5}, D: 3, CSS: true, Seed: 23, Walkers: 2},
		{Sizes: []int{4}, D: 2, CSS: true, BurnIn: 150, Seed: 41, Walkers: 3},
	} {
		full, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The uninterrupted run, snapshotting mid-flight like the service does
		// (the snapshot must not perturb the run).
		var blob []byte
		want, err := full.RunCheckpointsCtx(t.Context(), n, every, func(step int, conc map[int][]float64) {
			if step == interruptAt {
				blob = full.Snapshot().Encode()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if blob == nil {
			t.Fatalf("%s: no snapshot captured", cfg.MethodName())
		}

		st, err := DecodeEnsembleState(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", cfg.MethodName(), err)
		}
		if st.WindowsDone != interruptAt {
			t.Fatalf("%s: snapshot at %d windows, want %d", cfg.MethodName(), st.WindowsDone, interruptAt)
		}
		resumed, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(st); err != nil {
			t.Fatalf("%s: restore: %v", cfg.MethodName(), err)
		}
		got, err := resumed.RunCheckpointsCtx(t.Context(), n, every, func(int, map[int][]float64) {})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed result differs from uninterrupted run:\n got %+v\nwant %+v",
				cfg.MethodName(), got, want)
		}
	}
}

// A snapshot taken at the final barrier resumes to an immediately complete
// run (the crash-after-last-checkpoint case).
func TestResumeAtFullBudget(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	cfg := MultiConfig{Sizes: []int{3}, D: 1, Seed: 5, Walkers: 2}
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

// Restore validation: config mismatches and structurally impossible states
// are rejected with errors, never panics.
func TestRestoreValidation(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	cfg := MultiConfig{Sizes: []int{4}, D: 2, Seed: 9, Walkers: 2}
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
		t.Error("config mismatch accepted")
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

// Decoding truncated and bit-flipped snapshots errors instead of panicking,
// and a valid blob round-trips exactly.
func TestEnsembleStateDecodeRobust(t *testing.T) {
	client := access.NewGraphClient(convGraph())
	est, err := NewMultiEstimator(client, MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 3, Walkers: 2})
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

// FuzzDecodeEnsembleState hammers the decoder (and Restore on whatever
// decodes) with arbitrary bytes: the only acceptable failure mode is an
// error return. It starts from a one-size and a three-size blob of the
// current format; the committed corpus under testdata/fuzz adds the blobs
// older builds wrote (GEST and GMST version 1).
func FuzzDecodeEnsembleState(f *testing.F) {
	client := access.NewGraphClient(convGraph())
	var blobs [2][]byte
	for i, sizes := range [][]int{{4}, {3, 4, 5}} {
		est, err := NewMultiEstimator(client, MultiConfig{Sizes: sizes, D: 2, CSS: true, Seed: 3, Walkers: 2})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := est.Run(600); err != nil {
			f.Fatal(err)
		}
		blobs[i] = est.Snapshot().Encode()
	}
	f.Add(blobs[0])
	f.Add(blobs[0][:len(blobs[0])/2])
	f.Add([]byte("GEST"))
	f.Add([]byte{})
	f.Add(blobs[1])
	f.Add(blobs[1][:len(blobs[1])/2])
	f.Add([]byte("GMST"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeEnsembleState(data)
		if err != nil {
			return
		}
		// Canonical round trip: whatever decodes must re-encode to a blob
		// that decodes back to the same structure (byte equality with the
		// input is not required — varints have non-canonical encodings, and
		// the older formats re-encode as the current one).
		st2, err := DecodeEnsembleState(st.Encode())
		if err != nil {
			t.Fatalf("re-encoding a decoded state does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatal("decode/encode/decode is not stable")
		}
		_, _ = st.MergedResult() // must not panic; errors are fine
		// Restore costs O(walkers) allocations and an O(RNGPos) fast-forward,
		// so only states of a plausible size get that far.
		if len(st.Walkers) > 8 || st.Config.Walkers > 8 {
			return
		}
		for i := range st.Walkers {
			if st.Walkers[i].RNGPos > 1<<20 {
				return
			}
		}
		e, err := NewMultiEstimator(client, st.Config)
		if err != nil {
			return
		}
		_ = e.Restore(st) // must not panic; errors are fine
	})
}

// The seekable RNG reproduces math/rand streams exactly and fast-forwards to
// any position.
func TestSeekableRand(t *testing.T) {
	r := walk.NewRand(42)
	var ref []int
	for i := 0; i < 100; i++ {
		ref = append(ref, r.Intn(1000))
	}
	mid := walk.NewRand(42)
	for i := 0; i < 50; i++ {
		if got := mid.Intn(1000); got != ref[i] {
			t.Fatalf("draw %d: %d, want %d", i, got, ref[i])
		}
	}
	ff := walk.NewRandAt(42, mid.Pos())
	if ff.Pos() != mid.Pos() {
		t.Fatalf("fast-forward position %d, want %d", ff.Pos(), mid.Pos())
	}
	for i := 50; i < 100; i++ {
		if got := ff.Intn(1000); got != ref[i] {
			t.Fatalf("resumed draw %d: %d, want %d", i, got, ref[i])
		}
	}
}
