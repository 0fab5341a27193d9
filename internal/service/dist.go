package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// maxFanout bounds Spec.Nodes; a fleet larger than this is outside the
// design envelope (and the walker cap keeps the useful fan-out far lower).
const maxFanout = 64

// PartitionLookup adapts the manager's registry and client factory to the
// worker endpoint's graph resolution, so a graphletd running with -worker
// serves partitions over exactly the graphs (and through exactly the access
// stack, including any crawl-latency wrapper) its local jobs use.
func (m *Manager) PartitionLookup() func(name string) (access.Client, dist.GraphMeta, bool) {
	return func(name string) (access.Client, dist.GraphMeta, bool) {
		g, ok := m.reg.Get(name)
		if !ok {
			return nil, dist.GraphMeta{}, false
		}
		return m.opts.NewClient(g), distMeta(g), true
	}
}

func distMeta(g *graph.Graph) dist.GraphMeta {
	return dist.GraphMeta{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
}

// runDistributed executes a dispatched job by fanning its walker ensemble
// across the peer fleet. The coordinator holds this worker slot; the walk
// steps happen remotely (with local failover as the last resort). Every
// fleet-wide checkpoint — the moment all partitions reach a common target —
// becomes one ordinary journal checkpoint whose snapshot is the combined
// full-ensemble state, so a coordinator crash recovers through the existing
// resume machinery and can even finish the job locally with no peers.
func (m *Manager) runDistributed(ctx context.Context, j *job, g *graph.Graph, resumeSnap []byte) {
	spec := j.spec
	base := dist.Assignment{
		Graph:  spec.Graph,
		Meta:   distMeta(g),
		Budget: spec.Steps,
		Every:  m.snapshotEvery(spec.Steps),
	}
	// The assignment keeps the wire shape of the submission: sizes travel as
	// Multi, a bare k as Single. Workers run the same engine either way.
	if spec.multi() {
		m.met.multiRuns.Inc()
		cfg := spec.config()
		base.Multi = &cfg
	} else {
		base.Single = &core.Config{
			K: spec.K, D: spec.D, CSS: spec.CSS, NB: spec.NB,
			Walkers: spec.Walkers, Seed: spec.Seed,
		}
	}
	asns := dist.PartitionAssignments(base, spec.Nodes)

	// Coordinator crash recovery: slice the journaled full snapshot into
	// per-partition resume blobs. Like local resume, failure degrades to a
	// from-scratch run — it must never be able to fail the job.
	resumeTarget := 0
	if len(resumeSnap) > 0 {
		if t, ok := sliceResume(asns, resumeSnap); ok {
			resumeTarget = t
		} else {
			m.mu.Lock()
			j.progress = Progress{Total: spec.Steps}
			m.mu.Unlock()
		}
	}

	// lastSteps and lastCombined are only touched from OnSync, which the
	// coordinator serializes; the mutex covers the final read after Run.
	var lastMu sync.Mutex
	lastSteps := resumeTarget
	var lastCombined []byte

	opts := dist.Options{
		Peers:        m.opts.Peers,
		HTTPClient:   m.opts.DistHTTPClient,
		Retries:      m.opts.DistRetries,
		Backoff:      m.opts.DistBackoff,
		StallTimeout: m.opts.DistStallTimeout,
		LocalClient:  func() access.Client { return m.opts.NewClient(g) },
		Metrics:      m.met.dist,
		OnSync: func(target int, combined []byte) {
			res, err := decodeMerged(combined)
			if err != nil {
				return // combined states are coordinator-built; never expected
			}
			lastMu.Lock()
			delta := target - lastSteps
			lastSteps = target
			lastCombined = combined
			lastMu.Unlock()
			var snap []byte
			if m.jnl != nil {
				snap = combined
			}
			conc := res.Concentrations()
			m.met.walkCheckpoints.Inc()
			m.met.walkSteps.Add(int64(delta))
			m.mu.Lock()
			m.checkpointLocked(j, target, conc, snap)
			m.mu.Unlock()
		},
		// Exact resumed-step accounting: each partition reports the windows
		// its final successful attempt restored rather than re-ran — whether
		// from the crash-recovery blob above or a mid-run failover snapshot.
		OnResume: func(preserved int) {
			m.met.walkResumed.Add(int64(preserved))
			m.mu.Lock()
			j.progress.ResumedSteps += preserved
			m.notifySubsLocked(j, "checkpoint")
			m.mu.Unlock()
		},
	}

	finals, err := func() (finals [][]byte, err error) {
		// The local-failover path draws walker seeds outside the engine's
		// per-walker panic guard; a panicking crawl client must fail this
		// job, not the daemon.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: job %s: %v", j.id, r)
			}
		}()
		return dist.Run(ctx, opts, asns)
	}()

	if err != nil {
		// Salvage the fleet's last synchronized progress as the partial
		// result (a canceled local run keeps its partial merge the same way).
		lastMu.Lock()
		lc := lastCombined
		lastMu.Unlock()
		var res *core.MultiResult
		if lc != nil {
			res, _ = decodeMerged(lc)
		}
		m.settle(j, res, err)
		return
	}
	res, err := mergeFinals(finals)
	m.settle(j, res, err)
}

// sliceResume splits a journaled full-ensemble snapshot into per-partition
// resume blobs, reporting the snapshot's checkpoint target. On any failure
// the assignments are left with no resume state.
func sliceResume(asns []*dist.Assignment, snap []byte) (int, bool) {
	st, err := core.DecodeEnsembleState(snap)
	if err != nil {
		return 0, false
	}
	for _, asn := range asns {
		sl, err := st.Slice(asn.Lo, asn.Hi)
		if err != nil {
			for _, asn := range asns {
				asn.Resume = nil
			}
			return 0, false
		}
		asn.Resume = sl.Encode()
	}
	return st.WindowsDone, true
}

// decodeMerged decodes a combined full-ensemble state and computes its
// merged result.
func decodeMerged(blob []byte) (*core.MultiResult, error) {
	st, err := core.DecodeEnsembleState(blob)
	if err != nil {
		return nil, err
	}
	return st.MergedResult()
}

// mergeFinals combines the per-partition terminal states into the job's
// result — the same bytes a local run of the full ensemble produces.
func mergeFinals(finals [][]byte) (*core.MultiResult, error) {
	parts := make([]*core.EnsembleState, len(finals))
	for i, b := range finals {
		st, err := core.DecodeEnsembleState(b)
		if err != nil {
			return nil, fmt.Errorf("service: partition %d final state: %w", i, err)
		}
		parts[i] = st
	}
	combined, err := core.CombinePartitionStates(parts)
	if err != nil {
		return nil, err
	}
	return combined.MergedResult()
}
