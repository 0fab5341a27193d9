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
func benchSnapshot(b *testing.B, walkers, budget, at int) ([]byte, core.Config) {
	b.Helper()
	g := gen.HolmeKim(400, 3, 0.6, 11)
	cfg := core.Config{K: 4, D: 2, CSS: true, Seed: 42, Walkers: walkers}
	est, err := core.NewEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var blob []byte
	if _, err := est.RunCheckpoints(at, at, func(step int, conc []float64) {
		if step == at {
			blob = est.Snapshot().Encode()
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
// append — the record the PR-4 engine wrote (progress only) vs the PR-5
// record carrying a resumable ensemble snapshot — marshal plus framed write.
// The delta is what resumability costs per checkpoint; the async append
// queue keeps even the fsync variant off the API path.
func BenchmarkCheckpointAppend(b *testing.B) {
	conc := []float64{0.21, 0.34, 0.05, 0.17, 0.13, 0.10}
	snap, _ := benchSnapshot(b, 4, 100_000, 100_000)
	for _, tc := range []struct {
		name string
		rec  recCheckpoint
	}{
		{"plain", recCheckpoint{Steps: 50_000, Concentration: conc}},
		{"snapshot", recCheckpoint{Steps: 50_000, Concentration: conc, Snapshot: snap}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			jnl, err := journal.Open(filepath.Join(b.TempDir(), "journal"), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := mustMarshal(b, tc.rec)
				if err := jnl.Append(journal.Record{Type: journal.TypeCheckpoint, Job: "j-1", Payload: body}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(mustMarshal(b, tc.rec))), "payload-bytes")
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
				est, err := core.NewEstimator(client, cfg)
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
