package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service/journal"
	"repro/internal/stats"
)

// benchmarkMixedLoad measures interactive queue wait under a mixed load —
// long background jobs submitted ahead of a burst of short interactive
// jobs, one worker — and reports the burst's p50/p95 queue wait. classed
// false runs the FIFO baseline (every job in the same class, which the
// scheduler serves in submission order); classed true labels the load with
// priority classes so the burst overtakes the queued long jobs.
func benchmarkMixedLoad(b *testing.B, classed bool) {
	reg := NewRegistry()
	if err := reg.Add("hk", "inline", gen.HolmeKim(400, 3, 0.6, 11)); err != nil {
		b.Fatal(err)
	}
	mgr, err := NewManager(reg, Options{Workers: 1, MaxWalkers: 1, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()

	const (
		longJobs  = 4
		burst     = 8
		longSteps = 300_000
		shortStep = 2_000
	)
	bgClass, fgClass := PriorityBatch, PriorityBatch // FIFO baseline: one class
	if classed {
		bgClass, fgClass = PriorityBackground, PriorityInteractive
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var waits []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i+1) * 1000 // fresh specs every round: no cache, no coalescing
		var ids []string
		for j := 0; j < longJobs; j++ {
			v, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: longSteps,
				Walkers: 1, Seed: seed + int64(j), Priority: bgClass})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, v.ID)
		}
		var burstIDs []string
		for j := 0; j < burst; j++ {
			v, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: shortStep,
				Walkers: 1, Seed: seed + 100 + int64(j), Priority: fgClass})
			if err != nil {
				b.Fatal(err)
			}
			burstIDs = append(burstIDs, v.ID)
		}
		for _, id := range append(ids, burstIDs...) {
			if v, err := mgr.Wait(ctx, id); err != nil || v.State != StateDone {
				b.Fatalf("job %s: %+v, %v", id, v, err)
			}
		}
		for _, id := range burstIDs {
			v, _ := mgr.Get(id)
			waits = append(waits, v.StartedAt.Sub(v.CreatedAt).Seconds()*1e3)
		}
	}
	b.StopTimer()
	b.ReportMetric(stats.Quantile(waits, 0.5), "p50-wait-ms")
	b.ReportMetric(stats.Quantile(waits, 0.95), "p95-wait-ms")
}

func BenchmarkSchedulerMixedLoad(b *testing.B) {
	b.Run("fifo", func(b *testing.B) { benchmarkMixedLoad(b, false) })
	b.Run("priority", func(b *testing.B) { benchmarkMixedLoad(b, true) })
}

// BenchmarkJournalReplay measures a cold daemon start over a journaled
// history: Open + full replay + cache warm + worker start + Close.
func BenchmarkJournalReplay(b *testing.B) {
	for _, jobs := range []int{100, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			dir := b.TempDir()
			reg := NewRegistry()
			if err := reg.Add("g", "inline", gen.HolmeKim(200, 3, 0.5, 9)); err != nil {
				b.Fatal(err)
			}
			info, _ := reg.Info("g")
			jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < jobs; i++ {
				id := fmt.Sprintf("j-%d", i+1)
				spec := Spec{Graph: "g", K: 3, D: 1, Steps: 1000, Walkers: 1,
					Seed: int64(i), Priority: PriorityBatch}
				res := &core.Result{
					Steps: 1000, ValidSamples: 900,
					Weights:    []float64{0.4, 0.6},
					TypeCounts: []int64{500, 400},
				}
				app := func(typ journal.Type, payload any) {
					b.Helper()
					rec := journal.Record{Type: typ, Job: id}
					switch p := payload.(type) {
					case recSubmitted:
						rec.Payload = mustJSON(b, p)
					case recDone:
						rec.Payload = mustJSON(b, p)
					}
					if err := jnl.Append(rec); err != nil {
						b.Fatal(err)
					}
				}
				app(journal.TypeSubmitted, recSubmitted{Spec: spec, GraphMeta: &info})
				app(journal.TypeStarted, nil)
				app(journal.TypeDone, recDone{Result: res})
			}
			if err := jnl.Close(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr, err := NewManager(reg, Options{
					Workers: 1, DataDir: dir, CacheSize: 2 * jobs,
				})
				if err != nil {
					b.Fatal(err)
				}
				if st := mgr.Stats(); st.WarmedResults != jobs {
					b.Fatalf("warmed %d results, want %d", st.WarmedResults, jobs)
				}
				mgr.Close()
			}
		})
	}
}

func mustJSON(b *testing.B, v any) []byte {
	b.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return body
}
