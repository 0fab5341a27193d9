package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/loadgen"
)

// traceFile is what a traced run writes to bench/out/trace-<workload>.json:
// every span of the traced pass, and the /metrics count deltas taken at the
// same boundaries.
type traceFile struct {
	Workload string             `json:"workload"`
	Meta     meta               `json:"meta"`
	PerLayer values             `json:"per_layer"`
	Counts   map[string]float64 `json:"metrics_delta,omitempty"`
	Spans    []loadgen.Span     `json:"spans"`
}

func writeTrace(e *env, res *result, spans []loadgen.Span, counts loadgen.Samples) error {
	tf := traceFile{Workload: res.Workload, Meta: metaBlock(e), PerLayer: res.PerLayer, Spans: spans}
	if len(counts) > 0 {
		tf.Counts = make(map[string]float64)
		for k, v := range counts {
			if v != 0 {
				tf.Counts[k] = v
			}
		}
	}
	return writeJSON(filepath.Join(e.outDir, "trace-"+res.Workload+".json"), tf)
}

// traceLayers finishes a traced daemon run: it turns the traced pass into
// spans, checks that they account for the jobs' time, runs the in-process
// probes, and — on walk_local — checks the probes against the jobs' measured
// run time.
func (r *run) traceLayers(e *env, s *sut, workload string) error {
	var spans []loadgen.Span
	var self, total, runTotal time.Duration
	for i := range r.outcomes {
		o := &r.outcomes[i]
		if o.Err != nil {
			continue
		}
		root, kids := loadgen.JobSpans(o)
		self += loadgen.SelfTime(root, kids)
		total += root.Duration()
		spans = append(append(spans, root), kids...)
		if !o.View.Cached {
			runTotal += o.View.FinishedAt.Sub(o.View.StartedAt)
		}
	}
	residual := ratio(float64(self), float64(total))
	r.res.PerLayer["trace.residual_share"] = residual
	if residual > 0.02 {
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("WARNING: trace.residual_share %.4f exceeds 0.02: the spans do not account for the jobs' time", residual))
	}
	r.res.PerLayer.merge(runProbes(e, s.g))
	if workload == "walk_local" {
		r.runModel(runTotal)
	}
	return writeTrace(e, r.res, spans, r.delta)
}

// runModel predicts the traced pass's total service.run time from the
// probes — steps × the method's ns/step, spread over the walkers that had a
// core each, plus barriers × the barrier cost — and reports prediction ÷
// measurement. Far from 1, the per-layer unit costs do not describe what the
// daemon actually spends, and the decomposition must not be trusted.
func (r *run) runModel(measured time.Duration) {
	pl := r.res.PerLayer
	var model float64 // ns
	for i := range r.outcomes {
		o := &r.outcomes[i]
		if o.Err != nil || o.View.Cached {
			continue
		}
		spec := o.View.Spec
		perStep, ok := pl["core.run_ns_per_step."+loadgen.M6Names[i%6]]
		if !ok {
			return
		}
		steps := float64(spec.Steps)
		model += steps * perStep / float64(min(spec.Walkers, runtime.NumCPU()))
		// The daemon's default spacing: 64 barriers per job, at least 250
		// windows apart.
		barriers := steps / max(steps/64, 250)
		model += barriers * pl["core.barrier_us"] * 1e3
	}
	share := ratio(model, float64(measured.Nanoseconds()))
	pl["trace.run_model_share"] = share
	if share < 0.75 || share > 1.25 {
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("WARNING: trace.run_model_share %.3f is outside 0.75–1.25: the probes do not predict the measured run time", share))
	}
}
