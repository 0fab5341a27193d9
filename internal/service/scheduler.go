package service

import (
	"fmt"

	"repro/internal/obs"
)

// Priority is a job's scheduling class. Interactive jobs overtake batch
// jobs, which overtake background jobs, under the weighted-deficit rule
// implemented by scheduler — a long background crawl can no longer starve
// short interactive requests the way the old FIFO queue did.
type Priority string

const (
	// PriorityInteractive is for latency-sensitive requests (dashboards,
	// ad-hoc queries): highest weight, dispatched ahead of everything else
	// whenever its class has queued work.
	PriorityInteractive Priority = "interactive"
	// PriorityBatch is the default class for ordinary submissions.
	PriorityBatch Priority = "batch"
	// PriorityBackground is for long crawls and bulk re-computation: it
	// yields to both other classes but is never starved outright.
	PriorityBackground Priority = "background"
)

// priorityRank orders classes for coalescing upgrades (higher = more
// urgent). Unknown classes rank lowest.
func priorityRank(p Priority) int {
	switch p {
	case PriorityInteractive:
		return 2
	case PriorityBatch:
		return 1
	case PriorityBackground:
		return 0
	}
	return -1
}

// priorityWeight is each class's share of the step-budget virtual clock.
// The ratios are deliberately steep: a queued interactive job is dispatched
// ahead of ~64 background step-budget units per unit of its own, so bursts
// of short jobs overtake long crawls almost immediately, while a saturated
// interactive class still lets background work trickle through (weighted
// fairness, not strict priority — no starvation).
func priorityWeight(p Priority) float64 {
	switch p {
	case PriorityInteractive:
		return 64
	case PriorityBatch:
		return 8
	}
	return 1
}

// ParsePriority validates a spec's priority string; empty means batch.
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "":
		return PriorityBatch, nil
	case PriorityInteractive, PriorityBatch, PriorityBackground:
		return Priority(s), nil
	}
	return "", fmt.Errorf("service: unknown priority %q (want interactive, batch or background)", s)
}

// scheduler replaces the old FIFO admission channel with per-class queues
// under weighted deficit accounting (stride scheduling over step budgets):
// every class carries a virtual-time pass; dispatching a job advances its
// class's pass by the job's step budget divided by the class weight, and
// the next dispatch always goes to the backlogged class with the smallest
// pass. Classes therefore share the workers in weight proportion —
// interactive overtakes batch overtakes background — and an idle class
// re-enters at the current virtual time instead of cashing in banked
// credit. FIFO order is preserved within a class.
//
// scheduler is plain data guarded by Manager.mu: the manager enqueues,
// promotes and removes jobs and a worker pops one and marks it running in
// the same critical section, so whenever Manager.mu is free a job is in its
// class queue exactly when its state is queued.
type scheduler struct {
	queues map[Priority][]*job
	pass   map[Priority]float64
	vtime  float64 // monotone virtual clock; see pop()
	size   int
	cap    int

	// depthGauge mirrors per-class backlog into the metrics registry at
	// every queue mutation (nil-safe obs no-ops when unwired).
	depthGauge *obs.GaugeVec
}

func newScheduler(queueCap int, depthGauge *obs.GaugeVec) *scheduler {
	return &scheduler{
		queues:     make(map[Priority][]*job),
		pass:       make(map[Priority]float64),
		cap:        queueCap,
		depthGauge: depthGauge,
	}
}

// noteDepth refreshes class p's queue-depth gauge.
func (s *scheduler) noteDepth(p Priority) {
	s.depthGauge.With(string(p)).Set(int64(len(s.queues[p])))
}

// jobCost is the deficit a dispatch charges: the job's step budget, the
// best prior proxy for how long it will hold a worker. A recovery-re-queued
// job that resumes from a checkpoint snapshot is charged only its
// *remaining* steps: the pre-crash process already charged its class for
// the steps the snapshot preserves, and re-charging them would make a class
// with interrupted jobs pay double for one budget of work (the recovery
// double-charge). A multi-size job is charged the same single budget: its
// shared walk pays Spec.Steps once no matter how many sizes it covers —
// that under-charge relative to the equivalent independent runs is exactly
// the efficiency the shared walk buys.
func jobCost(j *job) float64 {
	cost := j.spec.Steps - j.resumeSteps
	if cost <= 0 {
		return 1
	}
	return float64(cost)
}

// enqueue admits j into its class queue. It fails when the total backlog is
// at capacity.
func (s *scheduler) enqueue(j *job) error {
	if s.size >= s.cap {
		return fmt.Errorf("service: admission queue full (%d jobs)", s.cap)
	}
	p := j.spec.Priority
	if len(s.queues[p]) == 0 && s.pass[p] < s.vtime {
		// A class that went idle re-enters at the current virtual time: it
		// must not bank credit while empty and then monopolize the workers.
		s.pass[p] = s.vtime
	}
	s.queues[p] = append(s.queues[p], j)
	s.size++
	s.noteDepth(p)
	return nil
}

// pop dequeues the next job to dispatch, or reports false when nothing is
// queued.
func (s *scheduler) pop() (*job, bool) {
	if s.size == 0 {
		return nil, false
	}
	var best Priority
	found := false
	for p, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		if !found || s.pass[p] < s.pass[best] ||
			(s.pass[p] == s.pass[best] && priorityRank(p) > priorityRank(best)) {
			best, found = p, true
		}
	}
	q := s.queues[best]
	j := q[0]
	q[0] = nil
	s.queues[best] = q[1:]
	s.size--
	s.noteDepth(best)
	s.pass[best] += jobCost(j) / priorityWeight(best)
	// Advance the virtual clock to the smallest pass still backlogged (or to
	// the dispatched class's new pass when the backlog drained). Classes
	// (re-)entering later start at this clock, so an idle period neither
	// banks credit (a returning class cannot monopolize the workers) nor
	// banks debt (work done while a class had no backlog cannot penalize its
	// later arrivals).
	min := s.pass[best]
	for p, q := range s.queues {
		if len(q) > 0 && s.pass[p] < min {
			min = s.pass[p]
		}
	}
	if min > s.vtime {
		s.vtime = min
	}
	return j, true
}

// remove unlinks a queued job (cancellation); it reports whether the job
// was found.
func (s *scheduler) remove(j *job) bool {
	q := s.queues[j.spec.Priority]
	for i, queued := range q {
		if queued == j {
			s.queues[j.spec.Priority] = append(q[:i], q[i+1:]...)
			s.size--
			s.noteDepth(j.spec.Priority)
			return true
		}
	}
	return false
}

// promote moves a queued job to a more urgent class (a coalesced submitter
// asked for it at higher priority) and sets its spec's priority. The enqueue
// cannot fail: the remove just freed a slot.
func (s *scheduler) promote(j *job, to Priority) {
	s.remove(j)
	j.spec.Priority = to
	_ = s.enqueue(j)
}

// drain empties every queue and returns the jobs it held, in no particular
// order.
func (s *scheduler) drain() []*job {
	var out []*job
	for p, q := range s.queues {
		out = append(out, q...)
		s.queues[p] = nil
		s.noteDepth(p)
	}
	s.size = 0
	return out
}

// depthByClass snapshots the per-class backlog for stats.
func (s *scheduler) depthByClass() map[string]int {
	out := make(map[string]int, len(s.queues))
	for p, q := range s.queues {
		if len(q) > 0 {
			out[string(p)] = len(q)
		}
	}
	return out
}
