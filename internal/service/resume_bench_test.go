package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service/journal"
)

// benchSnapshot runs a real estimator to `at` of `budget` windows and
// returns the encoded ensemble snapshot a checkpoint would journal.
func benchSnapshot(b *testing.B, walkers, budget, at int) ([]byte, core.MultiConfig) {
	b.Helper()
	g := gen.HolmeKim(400, 3, 0.6, 11)
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Seed: 42, Walkers: walkers}
	est, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var blob []byte
	if _, err := est.RunCheckpointsCtx(b.Context(), at, at, func(cp *core.EnsembleState) {
		if cp.WindowsDone == at {
			blob = cp.Encode()
		}
	}); err != nil {
		b.Fatal(err)
	}
	if blob == nil {
		b.Fatal("no snapshot captured")
	}
	return blob, cfg
}

// BenchmarkCheckpointAppend measures the cost of one checkpoint journal
// append: the record the daemon writes, which is the encoded ensemble
// snapshot itself, beside the JSON record older daemons wrote for the same
// checkpoint (steps, the concentrations and the snapshot in base64), whose
// payload also had to be marshaled. payload-bytes is what each record costs
// the journal; the async append queue keeps even the fsync variant off the
// API path.
func BenchmarkCheckpointAppend(b *testing.B) {
	snap, _ := benchSnapshot(b, 4, 100_000, 100_000)
	st, err := core.DecodeEnsembleState(snap)
	if err != nil {
		b.Fatal(err)
	}
	res, err := st.MergedResult()
	if err != nil {
		b.Fatal(err)
	}
	legacy := recCheckpoint{Steps: st.WindowsDone, Concentration: res.Concentrations()[4], Snapshot: snap}
	for _, tc := range []struct {
		name    string
		payload func() []byte
	}{
		{"snapshot", func() []byte { return snap }},
		{"legacy-json", func() []byte { return mustMarshal(b, legacy) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			jnl, err := journal.Open(filepath.Join(b.TempDir(), "journal"), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := jnl.Append(journal.Record{Type: journal.TypeCheckpoint, Job: "j-1", Payload: tc.payload()}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(tc.payload())), "payload-bytes")
		})
	}
}

// BenchmarkResumeRestore measures what recovery pays to resume instead of
// re-running: decode the journaled snapshot and restore a fresh estimator
// (dominated by the RNG fast-forward, O(pre-crash steps)), for a job killed
// at 50% of its step budget. steps-saved is the crawl work the restore
// preserves — the work a PR-4 daemon would have thrown away.
func BenchmarkResumeRestore(b *testing.B) {
	for _, budget := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			blob, cfg := benchSnapshot(b, 4, budget, budget/2)
			client := access.NewGraphClient(gen.HolmeKim(400, 3, 0.6, 11))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.DecodeEnsembleState(blob)
				if err != nil {
					b.Fatal(err)
				}
				est, err := core.NewMultiEstimator(client, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := est.Restore(st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(budget/2), "steps-saved")
		})
	}
}

func mustMarshal(b *testing.B, v any) []byte {
	b.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return body
}
