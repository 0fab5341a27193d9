package core_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
)

// TestMultiMatchesSingle pins the one-size view (core.Config, Estimator,
// NewPartitionEstimator, dist.Assignment.Single) to the multi path it wraps,
// to the byte: results, checkpoint snapshots, snapshot and combined
// partition state encodings, and the assignment wire form. It is the one
// test outside bench/ that calls the view.
func TestMultiMatchesSingle(t *testing.T) {
	g := gen.HolmeKim(60, 3, 0.6, 17)
	client := access.NewGraphClient(g)
	const n, every = 6000, 1500
	for _, row := range []struct {
		cfg core.Config
		m   core.MultiConfig // what cfg.Multi() must return
	}{
		{core.Config{K: 3, D: 1, CSS: true, NB: true, Walkers: 3, Seed: 11},
			core.MultiConfig{Sizes: []int{3}, D: 1, CSS: true, NB: true, Walkers: 3, Seed: 11}},
		{core.Config{K: 4, D: 2, CSS: true, BurnIn: 7, Walkers: 2, Seed: 12},
			core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, BurnIn: 7, Walkers: 2, Seed: 12}},
		{core.Config{K: 5, D: 3, NB: true, Walkers: 2, Seed: 13},
			core.MultiConfig{Sizes: []int{5}, D: 3, NB: true, Walkers: 2, Seed: 13}},
		{core.Config{K: 4, D: 1, RecoverStars: true, Walkers: 2, Seed: 14},
			core.MultiConfig{Sizes: []int{4}, D: 1, RecoverStars: true, Walkers: 2, Seed: 14}},
	} {
		cfg, m := row.cfg, row.m
		t.Run(cfg.MethodName(), func(t *testing.T) {
			if got := cfg.Multi(); !reflect.DeepEqual(got, m) {
				t.Fatalf("Multi() = %+v, want %+v", got, m)
			}
			view, err := core.NewEstimator(client, cfg)
			if err != nil {
				t.Fatal(err)
			}
			multi, err := core.NewMultiEstimator(client, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := multi.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "Run", got, want.Results[cfg.K])
			full := multi.Snapshot().Encode()
			if !bytes.Equal(view.Snapshot().Encode(), full) {
				t.Error("view snapshot bytes differ from the multi snapshot")
			}

			var viewPts, multiPts [][]float64
			got, err = view.RunCheckpoints(n, every, func(_ int, conc []float64) { viewPts = append(viewPts, conc) })
			if err != nil {
				t.Fatal(err)
			}
			want, err = multi.RunCheckpointsCtx(t.Context(), n, every, func(_ int, conc map[int][]float64) {
				multiPts = append(multiPts, conc[cfg.K])
			})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "RunCheckpoints", got, want.Results[cfg.K])
			if len(viewPts) != n/every || len(viewPts) != len(multiPts) {
				t.Fatalf("checkpoints: view %d, multi %d, want %d", len(viewPts), len(multiPts), n/every)
			}
			for i := range viewPts {
				sameFloats(t, "checkpoint concentration", viewPts[i], multiPts[i])
			}

			mid := cfg.Walkers / 2
			var parts []*core.EnsembleState
			for _, r := range [][2]int{{0, mid}, {mid, cfg.Walkers}} {
				p, err := core.NewPartitionEstimator(client, cfg, r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Run(n); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p.Snapshot())
			}
			combined, err := core.CombinePartitionStates(parts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(combined.Encode(), full) {
				t.Error("combined partition halves differ from the full state's bytes")
			}

			single := dist.Assignment{Graph: "g", Single: &cfg, Budget: n, Every: every, Lo: 0, Hi: mid}
			general := single
			general.Single, general.Multi = nil, &m
			if !bytes.Equal(single.Encode(), general.Encode()) {
				t.Error("Assignment{Single} encodes differently from Assignment{Multi}")
			}
			both := general
			both.Single = &cfg
			if both.Validate() == nil {
				t.Error("an assignment setting both Single and Multi validated")
			}
		})
	}
}

func sameResult(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if got.Config != want.Config || got.Steps != want.Steps || got.ValidSamples != want.ValidSamples ||
		math.Float64bits(got.StarAcc) != math.Float64bits(want.StarAcc) {
		t.Errorf("%s: view %+v, multi %+v", what, got, want)
	}
	sameFloats(t, what+" weights", got.Weights, want.Weights)
	if len(got.TypeCounts) != len(want.TypeCounts) {
		t.Fatalf("%s: %d type counts, want %d", what, len(got.TypeCounts), len(want.TypeCounts))
	}
	for i := range got.TypeCounts {
		if got.TypeCounts[i] != want.TypeCounts[i] {
			t.Errorf("%s: type %d count %d, want %d", what, i+1, got.TypeCounts[i], want.TypeCounts[i])
		}
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
