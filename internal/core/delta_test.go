package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// digestOf is stateDigest's SHA-256.
func digestOf(st *EnsembleState) [sha256.Size]byte {
	h := sha256.New()
	stateDigest(h, st)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestCheckpointDeltaRoundTrip: over every configuration of
// TestCheckpointStatesGolden (and a RecoverStars run, whose deltas carry
// StarAcc), each checkpoint state's delta against the state before it folds
// back to that state by stateDigest — onto the in-memory base and onto the
// base as DecodeEnsembleState reads it back — and folding it onto any other
// state of the run is an error. Across a run the deltas are smaller than the
// full blobs they stand for.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	const n = 600
	client := access.NewGraphClient(gen.HolmeKim(400, 3, 0.5, 11))
	methods := []struct {
		name string
		cfg  MultiConfig
	}{
		{"k4_d2_css", MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 3}},
		{"s345_d2_css", MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 4}},
		{"k5_d3_nb", MultiConfig{Sizes: []int{5}, D: 3, NB: true, Seed: 5}},
		{"k4_d1_stars", MultiConfig{Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Seed: 6}},
	}
	for _, m := range methods {
		for _, w := range []int{1, 2, 3, 8} {
			for _, every := range []int{1, 7, 250} {
				name := fmt.Sprintf("%s/w%d/every%d", m.name, w, every)
				cfg := m.cfg
				cfg.Walkers = w
				est, err := NewMultiEstimator(client, cfg)
				if err != nil {
					t.Fatal(err)
				}
				states := checkpointStates(t, est, n, every)
				fullBytes, deltaBytes := 0, 0
				for i := 1; i < len(states); i++ {
					prev, cur := states[i-1], states[i]
					delta, err := cur.EncodeDelta(prev)
					if err != nil {
						t.Fatalf("%s: target %d: %v", name, cur.WindowsDone, err)
					}
					if !IsCheckpointDelta(delta) || IsCheckpointDelta(cur.Encode()) {
						t.Fatalf("%s: IsCheckpointDelta misreads the delta or the full blob", name)
					}
					fullBytes += len(cur.Encode())
					deltaBytes += len(delta)
					decodedPrev, err := DecodeEnsembleState(prev.Encode())
					if err != nil {
						t.Fatal(err)
					}
					for _, base := range []*EnsembleState{prev, decodedPrev} {
						got, err := ApplyCheckpointDelta(base, delta)
						if err != nil {
							t.Fatalf("%s: target %d: %v", name, cur.WindowsDone, err)
						}
						if digestOf(got) != digestOf(cur) {
							t.Fatalf("%s: target %d: the fold differs from the state", name, cur.WindowsDone)
						}
					}
					if _, err := ApplyCheckpointDelta(cur, delta); err == nil {
						t.Fatalf("%s: target %d: a delta folded onto its own result", name, cur.WindowsDone)
					}
					if i >= 2 {
						if _, err := ApplyCheckpointDelta(states[i-2], delta); err == nil {
							t.Fatalf("%s: target %d: a delta folded onto the state two targets back", name, cur.WindowsDone)
						}
					}
				}
				if len(states) > 1 && deltaBytes >= fullBytes {
					t.Errorf("%s: deltas of %d bytes stand for full blobs of %d", name, deltaBytes, fullBytes)
				}
			}
		}
	}
}

// A delta is only written between states of the same config and shape, and
// only folds onto a state of that shape.
func TestCheckpointDeltaShape(t *testing.T) {
	client := access.NewGraphClient(gen.HolmeKim(400, 3, 0.5, 11))
	run := func(cfg MultiConfig) []*EnsembleState {
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return checkpointStates(t, est, 600, 300)
	}
	a := run(MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 2, Seed: 3})
	seed := run(MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 2, Seed: 4})
	walkers := run(MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 3, Seed: 3})
	sizes := run(MultiConfig{Sizes: []int{3, 4}, D: 2, CSS: true, Walkers: 2, Seed: 3})
	for _, other := range [][]*EnsembleState{seed, walkers, sizes} {
		if _, err := a[1].EncodeDelta(other[0]); err == nil {
			t.Errorf("a delta was written against a state of config %+v", other[0].Config)
		}
	}
	delta, err := a[1].EncodeDelta(a[0])
	if err != nil {
		t.Fatal(err)
	}
	// The same target, another shape: walker count, size count.
	for _, other := range [][]*EnsembleState{walkers, sizes} {
		if _, err := ApplyCheckpointDelta(other[0], delta); err == nil {
			t.Errorf("a delta folded onto a state of config %+v", other[0].Config)
		}
	}
	for cut := range delta {
		if _, err := ApplyCheckpointDelta(a[0], delta[:cut]); err == nil {
			t.Fatalf("a delta cut to %d of %d bytes folded", cut, len(delta))
		}
	}
	if _, err := ApplyCheckpointDelta(a[0], append(bytes.Clone(delta), 0)); err == nil {
		t.Error("a delta with a trailing byte folded")
	}
}

// FuzzApplyCheckpointDelta folds arbitrary bytes onto one of a set of real
// checkpoint states (picked by the first argument): one-size, three-size and
// RecoverStars runs. The fold never panics and allocates in proportion to
// the delta's length beyond a copy of the base; a fold that succeeds
// re-encodes to a full blob DecodeEnsembleState accepts and reads back as
// the same state. The seeds are the deltas between consecutive states, one
// cut short and one written against another target.
func FuzzApplyCheckpointDelta(f *testing.F) {
	client := access.NewGraphClient(gen.HolmeKim(400, 3, 0.5, 11))
	var bases []*EnsembleState
	var sizes []int // each base's full blob length
	for _, cfg := range []MultiConfig{
		{Sizes: []int{4}, D: 2, CSS: true, Walkers: 2, Seed: 3},
		{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 3, Seed: 4},
		{Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Walkers: 2, Seed: 6},
	} {
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			f.Fatal(err)
		}
		states := checkpointStates(f, est, 900, 300)
		for i := 1; i < len(states); i++ {
			delta, err := states[i].EncodeDelta(states[i-1])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(len(bases)), delta)
			f.Add(uint8(len(bases)), delta[:len(delta)/2])
			f.Add(uint8(len(bases)+1), delta)
			bases = append(bases, states[i-1])
		}
		bases = append(bases, states[len(states)-1])
	}
	for _, b := range bases {
		sizes = append(sizes, len(b.Encode()))
	}
	f.Add(uint8(0), []byte(deltaMagic))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, pick uint8, delta []byte) {
		i := int(pick) % len(bases)
		base := bases[i]
		before := heapAlloc()
		st, err := ApplyCheckpointDelta(base, delta)
		if used := heapAlloc() - before; used > uint64(64*len(delta)+64*sizes[i]+4096) {
			t.Errorf("a %d-byte delta onto a %d-byte state allocated %d bytes", len(delta), sizes[i], used)
		}
		if err != nil {
			return
		}
		back, err := DecodeEnsembleState(st.Encode())
		if err != nil {
			t.Fatalf("a folded state re-encodes to a blob that does not decode: %v", err)
		}
		if digestOf(back) != digestOf(st) {
			t.Fatal("a folded state does not read back as itself")
		}
	})
}

// heapAlloc returns the bytes allocated so far by the process.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
