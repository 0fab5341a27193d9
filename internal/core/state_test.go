package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/walk"
	"repro/internal/wire"
)

// TestStateEncodingGolden pins the GMST version 3 bytes and keeps the
// version 2 blobs readable. For each config, a run today stops at the same
// barrier as the golden runs (see the README under testdata/state): its state
// must encode to the gmst3_* blob byte for byte, the gmst2_* blob an older
// build wrote at that barrier must decode to the same fields, and both
// blobs' config sections must be exactly AppendConfig's encoding.
func TestStateEncodingGolden(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 14))
	for name, cfg := range map[string]MultiConfig{
		"k4_d1_stars_burn37_w2_s5.bin": {Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Walkers: 2, Seed: 5},
		"s345_d2_css_nb_w3_s21.bin":    {Sizes: []int{3, 4, 5}, D: 2, CSS: true, NB: true, Walkers: 3, Seed: 21},
	} {
		est, err := NewMultiEstimator(client, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var live *EnsembleState
		if _, err := est.RunCheckpointsCtx(t.Context(), 2001, 700, func(cp *EnsembleState) {
			if cp.WindowsDone == 1400 {
				live = cp
			}
		}); err != nil {
			t.Fatal(err)
		}
		section := AppendConfig(nil, cfg)
		d := &wire.Cursor{Data: section}
		if back := ReadConfig(d, ConfigGMST2); d.Err != nil || d.Rest() != 0 || !back.equal(cfg) {
			t.Errorf("ReadConfig(AppendConfig(%+v)) = %+v, %v", cfg, back, d.Err)
		}
		for _, file := range []string{"gmst3_" + name, "gmst2_" + name} {
			t.Run(file, func(t *testing.T) {
				blob := readStateFixture(t, file)
				if file[len("gmst")] == '3' {
					if got := live.Encode(); !bytes.Equal(got, blob) {
						t.Errorf("encoded state differs from the golden (%d vs %d bytes)", len(got), len(blob))
					}
				}
				st, err := DecodeEnsembleState(blob)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(st, live) {
					t.Error("the golden decodes to a different state than the run's")
				}
				if !bytes.HasPrefix(blob[len(stateMagic)+1:], section) {
					t.Errorf("golden config section is not AppendConfig's % x", section)
				}
			})
		}
	}
}

func readStateFixture(t *testing.T, file string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "state", file))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStateV3Rejects feeds the decoder version 3 blobs that the encoder
// never writes — a presence bit at or past the type count, a present type
// with nothing in it, a walk position elided over a ring too short to hold
// it, trailing bytes, an elision bit in a version 2 blob, a future version —
// and wants an error for each; the lossless corners (-0.0, a present type
// with only a count) must round-trip.
func TestStateV3Rejects(t *testing.T) {
	acc := func(w ...float64) SizeAcc {
		return SizeAcc{Weights: w, TypeCounts: make([]int64, len(w))}
	}
	one := func(ws WalkerState) *EnsembleState {
		return &EnsembleState{Config: MultiConfig{Sizes: []int{3}, D: 1, Walkers: 1, Seed: 1}, Walkers: []WalkerState{ws}}
	}
	// flagsAt is the offset of walker 0's flag byte in st's blob.
	flagsAt := func(st *EnsembleState) int {
		b := append([]byte(stateMagic), stateVersion)
		b = AppendConfig(b, st.Config)
		b = binary.AppendVarint(b, int64(st.WindowsDone))
		b = binary.AppendUvarint(b, uint64(len(st.Walkers)))
		return len(binary.AppendUvarint(b, st.Walkers[0].RNGPos))
	}
	roundTrip := func(name string, st *EnsembleState) []byte {
		t.Helper()
		blob := st.Encode()
		back, err := DecodeEnsembleState(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("%s: decoded %+v, want %+v", name, back, st)
		}
		return blob
	}
	reject := func(name string, blob []byte, want string) {
		t.Helper()
		if _, err := DecodeEnsembleState(blob); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: decode error %v, want one saying %q", name, err, want)
		}
	}

	// An unseen accumulator is its type count and an empty bitmap, the last
	// byte of this blob.
	empty := roundTrip("unseen types", one(WalkerState{Accs: []SizeAcc{acc(0, 0)}}))
	if got := empty[len(empty)-1]; got != 0 {
		t.Fatalf("bitmap of an unseen accumulator is %#x", got)
	}
	bad := bytes.Clone(empty)
	bad[len(bad)-1] = 1 << 2 // type 2 of 2
	reject("bitmap bit past the type count", bad, "past type count")
	bad = append(bytes.Clone(empty[:len(empty)-1]), 1)
	bad = binary.LittleEndian.AppendUint64(bad, 0)
	bad = binary.AppendVarint(bad, 0)
	reject("present type with zero weight and count", bad, "zero weight and count")
	negZero := acc(math.Copysign(0, -1), 0)
	negZero.TypeCounts[1] = 3
	roundTrip("-0.0 and a count-only type", one(WalkerState{Accs: []SizeAcc{negZero}}))
	reject("trailing bytes", append(bytes.Clone(empty), 0), "trailing bytes")

	// A walker whose Cur is its one ring state and whose Prev is not in the
	// ring: Cur is elided, Prev written as its count and node.
	prev := walk.StateOf(7)
	ws := WalkerState{Seeded: true, Primed: true, Win: []walk.State{walk.StateOf(5)}, Degs: []int{2}, Accs: []SizeAcc{acc(0, 0)}}
	ws.Cur, ws.Prev, ws.HasPrev, ws.Steps = ws.Win[0], prev, true, 1
	st := one(ws)
	blob := roundTrip("elided current state", st)
	at := flagsAt(st)
	if got := blob[at]; got != 0x0f {
		t.Fatalf("walker flags %#x, want seeded|primed|hasPrev|curInWin", got)
	}
	prevAt := at + 2 // flags, Steps
	if !bytes.Equal(blob[prevAt:prevAt+2], appendState(nil, prev)) {
		t.Fatalf("previous state not at offset %d", prevAt)
	}
	bad = append(bytes.Clone(blob[:prevAt]), blob[prevAt+2:]...)
	bad[at] |= 0x10
	reject("previous state elided over a 1-state ring", bad, "previous state elided")

	ws.Win, ws.Degs, ws.Primed = nil, nil, false
	st = one(ws)
	blob = roundTrip("unprimed walker", st)
	curAt := at + 2
	if !bytes.Equal(blob[curAt:curAt+2], appendState(nil, ws.Cur)) {
		t.Fatalf("current state not at offset %d", curAt)
	}
	bad = append(bytes.Clone(blob[:curAt]), blob[curAt+2:]...)
	bad[at] |= 0x08
	reject("current state elided over an empty ring", bad, "current state elided")

	v2 := readStateFixture(t, "gmst2_k4_d1_stars_burn37_w2_s5.bin")
	v2st, err := DecodeEnsembleState(v2)
	if err != nil {
		t.Fatal(err)
	}
	bad = bytes.Clone(v2)
	bad[flagsAt(v2st)] |= 0x08
	reject("elision bit in a version 2 blob", bad, "unknown flag bits")
	bad = append([]byte(stateMagic), stateVersion+1)
	reject("a future version", append(bad, blob[len(stateMagic)+1:]...), "unsupported GMST format version 4")
}

// checkpointStates runs est for n windows with a checkpoint every `every`
// windows and returns the state handed out at each target, in target order.
func checkpointStates(t testing.TB, est *MultiEstimator, n, every int) []*EnsembleState {
	t.Helper()
	var out []*EnsembleState
	if _, err := est.RunCheckpointsCtx(t.Context(), n, every, func(cp *EnsembleState) {
		out = append(out, cp)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// stateConc is the per-size concentrations merged from a checkpoint state.
func stateConc(t testing.TB, st *EnsembleState) map[int][]float64 {
	t.Helper()
	res, err := st.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	return res.Concentrations()
}
