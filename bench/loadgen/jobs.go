// Package loadgen is the job client behind cmd/graphlet-loadgen and the
// bench runner: it generates seeded job lists, drives them against a live
// graphletd over the public HTTP API in a closed or an open loop, and
// summarises what came back. It never touches daemon internals — the only
// product types it imports are the JSON shapes of the API (service.Spec,
// service.JobView).
package loadgen

import (
	"math/rand"
	"time"

	"repro/internal/service"
)

// Job is one planned submission.
type Job struct {
	Spec service.Spec
	// Due is the arrival time as an offset from the start of the phase. The
	// closed loop ignores it; the open loop submits no earlier and times the
	// job from it.
	Due time.Duration
}

// M6 is the standing job mix: six specs that between them cover every walk
// order the daemon serves (d = 1, 2, 3), both §4 optimisations, and the
// shared-walk multi-size path, so a change to any of them moves a workload
// built from it.
//
//	0: k3 d1 css nb   1: k4 d2 css   2: k5 d2 css
//	3: k4 d3          4: k5 d3 nb    5: sizes[3,4,5] d2 css
var M6 = [6]service.Spec{
	{K: 3, D: 1, CSS: true, NB: true},
	{K: 4, D: 2, CSS: true},
	{K: 5, D: 2, CSS: true},
	{K: 4, D: 3},
	{K: 5, D: 3, NB: true},
	{Sizes: []int{3, 4, 5}, D: 2, CSS: true},
}

// M6Names labels the M6 slots with the per-layer probe that models them.
var M6Names = [6]string{"srw1cssnb_k3", "srw2css_k4", "srw2css_k5", "srw3_k4", "srw3nb_k5", "multi345_d2css"}

// uniqueSeeds draws n distinct positive job seeds from rng. Distinct seeds
// make every job a distinct cache key, so no run is answered by the result
// cache unless a workload asks for that on purpose.
func uniqueSeeds(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63()
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// M6Jobs returns n jobs drawn round-robin from M6 against the named graph,
// slot i running steps[i] windows, each with a unique seed drawn from rng.
func M6Jobs(rng *rand.Rand, graph string, n int, steps [6]int, walkers int) []Job {
	seeds := uniqueSeeds(rng, n)
	jobs := make([]Job, n)
	for i := range jobs {
		spec := M6[i%6]
		spec.Sizes = append([]int(nil), spec.Sizes...)
		spec.Graph, spec.Steps, spec.Walkers, spec.Seed = graph, steps[i%6], walkers, seeds[i]
		jobs[i] = Job{Spec: spec}
	}
	return jobs
}

// UniformJobs returns n copies of the template spec with unique seeds.
func UniformJobs(rng *rand.Rand, n int, template service.Spec) []Job {
	seeds := uniqueSeeds(rng, n)
	jobs := make([]Job, n)
	for i := range jobs {
		spec := template
		spec.Seed = seeds[i]
		jobs[i] = Job{Spec: spec}
	}
	return jobs
}

// ShortHotSeeds is the size of the hot seed set of ShortJobs.
const ShortHotSeeds = 16

// ShortJobs returns the short-request list: n single-walker jobs of the
// given step budget whose (k,d) alternates (3,1)/(4,2), with CSS on every
// third. Every second submission draws its seed from a hot set of
// ShortHotSeeds, so about half the list is answered by the result cache or
// coalesced onto an identical in-flight run; the rest have unique seeds.
// Arrival times follow PoissonSchedule at rate jobs per second.
func ShortJobs(rng *rand.Rand, graph string, n, steps int, rate float64) []Job {
	hot := uniqueSeeds(rng, ShortHotSeeds)
	cold := uniqueSeeds(rng, n)
	due := PoissonSchedule(rng, n, rate)
	jobs := make([]Job, n)
	for i := range jobs {
		spec := service.Spec{Graph: graph, K: 3, D: 1, Steps: steps, Walkers: 1}
		if i%2 == 1 {
			spec.K, spec.D = 4, 2
		}
		spec.CSS = i%3 == 0
		spec.Seed = cold[i]
		if rng.Intn(2) == 0 {
			spec.Seed = hot[rng.Intn(len(hot))]
		}
		jobs[i] = Job{Spec: spec, Due: due[i]}
	}
	return jobs
}

// PoissonSchedule returns n arrival offsets of a Poisson process of the
// given rate (arrivals per second): exponential gaps, cumulative.
func PoissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
