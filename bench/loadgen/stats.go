package loadgen

import (
	"time"

	"repro/internal/stats"
)

// TailMinBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the "percentile" is one or two outliers.
const TailMinBeyond = 10

// Tail returns the highest of p99/p95/p90 that has at least TailMinBeyond
// samples beyond it, with the percentile it chose. With fewer than 100
// samples none qualifies and Tail falls back to the median (pct 50).
func Tail(xs []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90} {
		if float64(len(xs))*float64(100-p)/100 >= TailMinBeyond {
			return stats.Quantile(xs, float64(p)/100), p
		}
	}
	return stats.Quantile(xs, 0.5), 50
}

// Summary condenses one phase's outcomes.
type Summary struct {
	Sent, Succeeded, Failed int
	// Wall is first submission to last terminal event.
	Wall time.Duration
	// Steps sums progress.steps over the distinct daemon jobs that actually
	// ran: a cache hit walked nothing, and submissions coalesced onto one run
	// share its job ID and count once.
	Steps int64
	// Cached and Coalesced count succeeded jobs answered from the result
	// cache and jobs that shared an in-flight run.
	Cached, Coalesced int

	// Per succeeded job, in milliseconds: LatencyMs is due time to terminal
	// event, SubmitMs the POST round trip. For jobs that ran (not cached),
	// from the JobView timestamps: QueueWaitMs is created→started, RunMs
	// started→finished, NotifyMs finished→terminal event at the client.
	LatencyMs, SubmitMs, QueueWaitMs, RunMs, NotifyMs []float64
	// LateMs is how far behind its due time each submission started (open
	// loop; all zero in a closed loop).
	LateMs []float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summarize folds outcomes into a Summary. An outcome with Err set counts
// as failed and contributes no timing sample.
func Summarize(outcomes []Outcome) Summary {
	var s Summary
	var first, last time.Time
	ran := make(map[string]bool)
	for i := range outcomes {
		o := &outcomes[i]
		s.Sent++
		if first.IsZero() || o.SubmitStart.Before(first) {
			first = o.SubmitStart
		}
		if o.Terminal.After(last) {
			last = o.Terminal
		}
		if o.Err != nil {
			s.Failed++
			continue
		}
		s.Succeeded++
		s.LatencyMs = append(s.LatencyMs, ms(o.Latency()))
		s.SubmitMs = append(s.SubmitMs, ms(o.SubmitEnd.Sub(o.SubmitStart)))
		s.LateMs = append(s.LateMs, ms(o.SubmitStart.Sub(o.Due)))
		v := &o.View
		if v.Coalesced > 1 {
			s.Coalesced++
		}
		if v.Cached {
			s.Cached++
			continue
		}
		if !ran[v.ID] {
			ran[v.ID] = true
			s.Steps += int64(v.Progress.Steps)
		}
		s.QueueWaitMs = append(s.QueueWaitMs, ms(v.StartedAt.Sub(v.CreatedAt)))
		s.RunMs = append(s.RunMs, ms(v.FinishedAt.Sub(v.StartedAt)))
		s.NotifyMs = append(s.NotifyMs, ms(o.Terminal.Sub(v.FinishedAt)))
	}
	s.Wall = last.Sub(first)
	return s
}
