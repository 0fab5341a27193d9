package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service/journal"
)

// worker runs dispatched jobs until Close. It pops a job and marks it
// running in one critical section, so whenever m.mu is free a job is in its
// class queue exactly when its state is queued, and Cancel and Close find
// every live job either queued or running. The same critical section
// settles the job the worker ran before.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		j, ok := m.sched.pop()
		if !ok {
			if m.closed {
				m.mu.Unlock()
				return
			}
			m.dispatch.Wait()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		m.met.jobsActive.Inc()
		m.met.runs.Inc()
		m.recordDispatchLocked(j)
		m.journalAppendLocked(journal.TypeStarted, j.id, nil)
		resumeChain := j.resumeChain
		m.mu.Unlock()
		res, err := m.runJob(ctx, j, resumeChain)
		cancel()
		m.mu.Lock()
		m.settleLocked(j, res, err)
	}
}

// fullCheckpointEvery spaces a job's full checkpoint records: a job's
// checkpoint targets fall into blocks of 16, counting from the first, and a
// delta is only written against a record of the same block — so the first
// record of each block (the 16th target's, in a run that syncs every
// target) carries the whole ensemble state, and the records after it carry
// deltas against the record before them. It bounds both what replay folds
// to resume a job (one full record and at most 15 deltas) and what
// compaction keeps of a live job's checkpoints (its records from the last
// full one on, at most 16).
const fullCheckpointEvery = 16

// checkpointBlock returns the block of the checkpoint at target, on a grid
// of targets every windows apart (the last one the budget).
func checkpointBlock(target, every int) int {
	return ((target+every-1)/every - 1) / fullCheckpointEvery
}

// snapshotEvery derives the checkpoint spacing for a budget.
func (m *Manager) snapshotEvery(steps int) int {
	if m.opts.SnapshotEvery > 0 {
		return m.opts.SnapshotEvery
	}
	every := steps / 64
	if every < 250 {
		every = 250
	}
	return every
}

// runJob executes one running job end to end, on the one execution path:
// the job's walker ensemble runs as partitions through the dist coordinator —
// Nodes partitions on the peer fleet when the spec asks for distribution and
// peers are configured, otherwise the one partition [0, W) in this process,
// on this goroutine. Where a walker runs cannot change a byte, so the two
// differ in the partition count and the peer list and nothing else. ctx is
// the job's (Cancel and Close cancel it) and resumeChain its recovered
// checkpoint chain, read when the worker started it. The worker settles the
// returned result.
func (m *Manager) runJob(ctx context.Context, j *job, resumeChain [][]byte) (*core.MultiResult, error) {
	spec := j.spec
	g, ok := m.reg.Get(spec.Graph)
	if !ok {
		// The graph was removed between submit and dispatch: fail cleanly
		// (a terminal "failed" state with an actionable message) instead of
		// surfacing whatever a nil graph would have produced mid-run.
		return nil, fmt.Errorf("service: graph %q was removed after this job was submitted", spec.Graph)
	}
	cfg := spec.config()
	every := m.snapshotEvery(spec.Steps)
	asn := dist.Assignment{
		Graph:  spec.Graph,
		Meta:   distMeta(g),
		Multi:  &cfg,
		Budget: spec.Steps,
		Every:  every,
	}
	if spec.multi() {
		m.met.multiRuns.Inc()
	}
	// The coordinator holds this worker slot for the job's duration whether
	// the walk runs here or on the fleet.
	nodes, peers := 1, []string(nil)
	if spec.Nodes > 1 && len(m.opts.Peers) > 0 {
		nodes, peers = spec.Nodes, m.opts.Peers
	}

	// A recovered checkpoint chain is folded here, outside m.mu. Resume is
	// an optimization that must never be able to fail a job: a chain that
	// does not fold — like a partition that cannot restore its share of the
	// state — degrades to running from scratch.
	var resume *core.EnsembleState
	lastSteps := 0 // target of the last ensemble-wide checkpoint
	// base is the state of the job's last checkpoint record, the one the
	// next record may be a delta against (nil while this process holds
	// none), and baseErrs the journal's failure count when it was queued.
	var base *core.EnsembleState
	var baseErrs int64
	if len(resumeChain) > 0 {
		resume, _ = foldCheckpoints(resumeChain)
		m.mu.Lock()
		if resume != nil {
			lastSteps = resume.WindowsDone
			base, baseErrs = resume, m.met.journal.Errors.Value()
			// Shown from the first progress event on; the partitions' credits
			// replace it when the run ends.
			j.progress.ResumedSteps = resume.WindowsDone
		} else {
			// The replayed pre-crash progress no longer describes this
			// (from-scratch) run.
			j.progress = Progress{Total: spec.Steps}
		}
		m.mu.Unlock()
	}
	// credited sums the windows the partitions restored (OnResume).
	credited := 0
	// synced is the merged result at that checkpoint: what progress, the
	// journal and event streams last saw, and the job's partial result if it
	// is interrupted. Both are touched only from OnSync, which the
	// coordinator serializes, and read once Run has returned.
	var synced *core.MultiResult
	opts := dist.Options{
		Peers:       peers,
		Backoff:     m.opts.DistBackoff,
		LocalClient: func() access.Client { return m.opts.NewClient(g) },
		Metrics:     m.met.dist,
		// The one checkpoint handler. Every ensemble-wide checkpoint — on a
		// fleet, the moment all partitions reach a common target — is
		// recorded for its three consumers: restart-safe progress, the
		// journal (whose record is the full-ensemble state and nothing else —
		// whole, or as a delta against the job's previous record — so an
		// interrupted job resumes from it on any fleet, or none, and replay
		// re-derives this progress from it; the write itself happens on the
		// writer goroutine), and any live event streams. A record is full
		// when it opens a block of fullCheckpointEvery targets, when this
		// process holds no previous record to code against (a fresh run's
		// first target, or a run that fell back to scratch), and when the
		// journal failed an append since the previous record, which may then
		// be missing.
		// Progress carries the per-size concentrations in the shape the
		// job's spec calls for. Walk-engine metrics are
		// recorded only here (a counter add is one atomic), never inside the
		// per-step path.
		OnSync: func(combined *core.EnsembleState) {
			res, err := combined.MergedResult()
			if err != nil {
				return // combined states are coordinator-built; never expected
			}
			target := combined.WindowsDone
			m.met.walkCheckpoints.Inc()
			m.met.walkSteps.Add(int64(target - lastSteps))
			synced, lastSteps = res, target
			// Encode before taking the manager lock (pure CPU over a state
			// nobody mutates), and only with a journal to append it to.
			var snap []byte
			if m.jnl != nil {
				errs := m.met.journal.Errors.Value()
				if base != nil && errs == baseErrs && checkpointBlock(target, every) == checkpointBlock(base.WindowsDone, every) {
					snap, _ = combined.EncodeDelta(base) // nil when the shapes differ
				}
				if snap == nil {
					snap = combined.Encode()
				}
				base, baseErrs = combined, errs
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			j.progress.Steps = target
			j.progress.Concentration, j.progress.Concentrations = spec.shape(res.Concentrations())
			m.journalAppendRawLocked(journal.TypeCheckpoint, j.id, snap)
			m.notifySubsLocked(j, "checkpoint")
		},
		OnResume: func(preserved int) {
			m.met.walkResumed.Add(int64(preserved))
			m.mu.Lock()
			credited += preserved
			j.progress.ResumedSteps = max(j.progress.ResumedSteps, credited)
			m.notifySubsLocked(j, "checkpoint")
			m.mu.Unlock()
		},
	}
	final, err := dist.Run(ctx, opts, dist.PartitionAssignments(asn, nodes), resume)
	m.mu.Lock()
	j.progress.ResumedSteps = credited
	m.mu.Unlock()
	// The final sync already merged the final state; only a job resumed at
	// its full budget completes without one.
	if err == nil && (synced == nil || synced.Steps != final.WindowsDone) {
		synced, err = final.MergedResult()
	}
	return synced, err
}

// settleLocked records a run's outcome. A completed run fills the result cache
// with one entry per size, keyed as the equivalent single-size spec (for a
// single-size job, its own key), so later single-size requests for any
// covered k — and later multi-size requests, reassembled from the same
// entries — are warm hits. A cancelled run keeps its partial result
// (progress made) but is not cached. Caller holds m.mu.
func (m *Manager) settleLocked(j *job, res *core.MultiResult, err error) {
	m.met.jobsActive.Dec()
	delete(m.inflight, j.spec.key())
	switch {
	case err == nil:
		for _, k := range j.spec.sizes() {
			r := res.Results[k]
			m.cache.put(j.spec.sizeSpec(k).key(), r, j.id)
			if j.spec.multi() {
				label := strconv.Itoa(k)
				m.met.multiResults.With(label).Inc()
				m.met.multiSteps.With(label).Add(int64(r.Steps))
			}
		}
		m.finishLocked(j, StateDone, res, nil)
	case errors.Is(err, context.Canceled):
		m.finishLocked(j, StateCanceled, res, err)
	default:
		m.finishLocked(j, StateFailed, res, err)
	}
}
