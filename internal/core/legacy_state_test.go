package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/gen"
)

// TestLegacyStateFixtures pins the ROADMAP invariant "on-disk journal readers
// keep reading old files" for the state codec. The blobs under
// testdata/state were written by the last build that had two engines and two
// codecs (see the README there): four single-size GEST version 1 snapshots,
// the [1,3) partition slice of the first, and one multi-size GMST version 1
// snapshot, each taken at window 1400 of a 2001-window run with barriers
// every 700. Every one must decode through the one DecodeEnsembleState,
// re-encode as a current-format blob that decodes back equal, and restore
// into today's walker to finish bit-equal to an uninterrupted run — which for
// GEST blobs also proves the eager-to-lazy walk mapping (walker.restore).
func TestLegacyStateFixtures(t *testing.T) {
	client := access.NewGraphClient(gen.BarabasiAlbert(2000, 4, 14))
	const n, every, at = 2001, 700, 1400
	for _, fx := range []struct {
		file   string
		cfg    MultiConfig
		lo, hi int
	}{
		{"gest1_k4_d2_css_w3_s14.bin", MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 3, Seed: 14}, 0, 3},
		{"gest1_k4_d2_css_w3_s14_slice1-3.bin", MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 3, Seed: 14}, 1, 3},
		{"gest1_k4_d1_stars_burn37_w2_s5.bin", MultiConfig{Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Walkers: 2, Seed: 5}, 0, 2},
		{"gest1_k5_d3_nb_w1_s9.bin", MultiConfig{Sizes: []int{5}, D: 3, NB: true, Walkers: 1, Seed: 9}, 0, 1},
		{"gest1_k3_d1_w2_s3.bin", MultiConfig{Sizes: []int{3}, D: 1, Walkers: 2, Seed: 3}, 0, 2},
		{"gmst1_s345_d2_css_w2_s21.bin", MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 2, Seed: 21}, 0, 2},
	} {
		t.Run(fx.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "state", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			st, err := DecodeEnsembleState(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !st.Config.equal(fx.cfg) || st.WindowsDone != at || len(st.Walkers) != fx.hi-fx.lo {
				t.Fatalf("decoded config %+v at %d windows with %d walkers, want %+v at %d with %d",
					st.Config, st.WindowsDone, len(st.Walkers), fx.cfg, at, fx.hi-fx.lo)
			}
			current := st.Encode()
			if !bytes.HasPrefix(current, append([]byte(stateMagic), stateVersion)) {
				t.Errorf("re-encoded blob starts %q, want the current format", current[:5])
			}
			if back, err := DecodeEnsembleState(current); err != nil {
				t.Errorf("re-encoded blob does not decode: %v", err)
			} else if !reflect.DeepEqual(back, st) {
				t.Error("re-encoding changed the state")
			}

			run := func(restore *EnsembleState) *MultiResult {
				est, err := NewPartitionMultiEstimator(client, fx.cfg, fx.lo, fx.hi)
				if err != nil {
					t.Fatal(err)
				}
				if restore != nil {
					if err := est.Restore(restore); err != nil {
						t.Fatalf("restore: %v", err)
					}
				}
				res, err := est.RunCheckpointsCtx(t.Context(), n, every, func(*EnsembleState) {})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if got, want := run(st), run(nil); !reflect.DeepEqual(got, want) {
				t.Errorf("resumed from the fixture:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
