package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/bench/loadgen"
	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service"
)

// oracleEvery selects which results are recomputed: every 8th unique spec
// of a workload, so the check costs about an eighth of the measured work —
// more densely on a short list, so that at least oracleMin results are
// checked whenever the list has that many.
const (
	oracleEvery = 8
	oracleMin   = 8
)

// compute runs the spec in-process, exactly as the daemon's run path does
// for a local job, and renders it the way the API would.
func compute(g *graph.Graph, spec service.Spec) (single *service.JobResult, multi map[int]*service.JobResult, err error) {
	client := access.NewGraphClient(g)
	render := func(r *core.Result) *service.JobResult {
		return &service.JobResult{
			Method: r.Config.MethodName(), Steps: r.Steps, ValidSamples: r.ValidSamples,
			Concentration: r.Concentration(), Weights: r.Weights,
		}
	}
	if len(spec.Sizes) > 0 {
		est, err := core.NewMultiEstimator(client, core.MultiConfig{
			Sizes: spec.Sizes, D: spec.D, CSS: spec.CSS, NB: spec.NB, Walkers: spec.Walkers, Seed: spec.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		res, err := est.Run(spec.Steps)
		if err != nil {
			return nil, nil, err
		}
		multi = make(map[int]*service.JobResult, len(res.Results))
		for k, r := range res.Results {
			multi[k] = render(r)
		}
		return nil, multi, nil
	}
	est, err := core.NewEstimator(client, core.Config{
		K: spec.K, D: spec.D, CSS: spec.CSS, NB: spec.NB, Walkers: spec.Walkers, Seed: spec.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := est.Run(spec.Steps)
	if err != nil {
		return nil, nil, err
	}
	return render(res), nil, nil
}

// sameBits reports whether two float vectors are equal bit for bit. JSON
// round-trips float64 exactly (shortest representation that parses back to
// the same bits), so a daemon result can be held to this.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameResult(got, want *service.JobResult) bool {
	return got != nil && want != nil && got.Steps == want.Steps && got.ValidSamples == want.ValidSamples &&
		sameBits(got.Concentration, want.Concentration) && sameBits(got.Weights, want.Weights)
}

// checkView recomputes the view's spec in-process and reports whether the
// daemon's concentration and weights are bit-equal to it.
func checkView(g *graph.Graph, view *service.JobView) error {
	spec := view.Spec
	single, multi, err := compute(g, spec)
	if err != nil {
		return fmt.Errorf("oracle: job %s: %w", view.ID, err)
	}
	if single != nil {
		if !sameResult(view.Result, single) {
			return fmt.Errorf("oracle: job %s (%s): result differs from the in-process run", view.ID, specLabel(spec))
		}
		return nil
	}
	if len(view.Results) != len(multi) {
		return fmt.Errorf("oracle: job %s: %d per-size results, want %d", view.ID, len(view.Results), len(multi))
	}
	for k, want := range multi {
		if !sameResult(view.Results[k], want) {
			return fmt.Errorf("oracle: job %s (%s): size-%d result differs from the in-process run", view.ID, specLabel(spec), k)
		}
	}
	return nil
}

// specLabel is the part of a spec that decides its result, as a string: the
// oracle's notion of "unique spec" (priority and nodes cannot change a
// result and are left out, as in the daemon's own cache key).
func specLabel(s service.Spec) string {
	s.Priority, s.Nodes = "", 0
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("%+v", s)
	}
	return string(b)
}

// verify recomputes a sample of the unique specs among the succeeded
// outcomes (see oracleEvery), on two goroutines, and returns how many it
// checked and the mismatches it found.
func verify(g *graph.Graph, outcomes []loadgen.Outcome) (checked int, wrong []error) {
	seen := make(map[string]bool)
	var unique []*service.JobView
	for i := range outcomes {
		o := &outcomes[i]
		if label := specLabel(o.View.Spec); o.Err == nil && !seen[label] {
			seen[label] = true
			unique = append(unique, &o.View)
		}
	}
	stride := min(oracleEvery, max(len(unique)/oracleMin, 1))
	var picked []*service.JobView
	for i := 0; i < len(unique); i += stride {
		picked = append(picked, unique[i])
	}
	errs := make([]error, len(picked))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(picked); i += 2 {
				errs[i] = checkView(g, picked[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			wrong = append(wrong, err)
		}
	}
	return len(picked), wrong
}
