package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
	"repro/internal/wire"
)

// TestStateEncodingGolden pins the GMST version 2 bytes. The gmst2_* blobs
// under testdata/state were written by the build before the config section
// became an exported codec (see the README there); a run of the same config
// today must encode to the same bytes at the same barrier, and the blob's
// config section must be exactly AppendConfig's encoding.
func TestStateEncodingGolden(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 14))
	for file, cfg := range map[string]MultiConfig{
		"gmst2_k4_d1_stars_burn37_w2_s5.bin": {Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Walkers: 2, Seed: 5},
		"gmst2_s345_d2_css_nb_w3_s21.bin":    {Sizes: []int{3, 4, 5}, D: 2, CSS: true, NB: true, Walkers: 3, Seed: 21},
	} {
		t.Run(file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "state", file))
			if err != nil {
				t.Fatal(err)
			}
			est, err := NewMultiEstimator(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			if _, err := est.RunCheckpointsCtx(t.Context(), 2001, 700, func(cp *EnsembleState) {
				if cp.WindowsDone == 1400 {
					got = cp.Encode()
				}
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("encoded state differs from the golden (%d vs %d bytes)", len(got), len(want))
			}
			section := AppendConfig(nil, cfg)
			if !bytes.HasPrefix(want[len(stateMagic)+1:], section) {
				t.Errorf("golden config section is not AppendConfig's % x", section)
			}
			d := &wire.Cursor{Data: section}
			if back := ReadConfig(d, ConfigGMST2); d.Err != nil || d.Rest() != 0 || !back.equal(cfg) {
				t.Errorf("ReadConfig(AppendConfig(%+v)) = %+v, %v", cfg, back, d.Err)
			}
		})
	}
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
