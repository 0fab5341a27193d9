package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/service/journal"
)

// This file is the Manager's durability layer: every job-lifecycle
// transition is appended to an append-only journal (internal/service/journal)
// as it happens — asynchronously, through the ordered append queue of
// asyncjournal.go — and on startup the journal is replayed to rebuild the
// job table, warm the result cache with every completed run, and re-queue
// the jobs that were queued or running when the previous process died. The
// journal is the single source of truth; the in-memory job table is a
// replayable view of it (the LogBase pattern).
//
// A checkpoint record's payload is the engine's serialized ensemble state
// itself, nothing else, in one of two forms: the bytes of
// core.EnsembleState.Encode() (a full record), or those of EncodeDelta
// against the job's previous checkpoint record (a delta record; runJob's
// OnSync handler, the one place a checkpoint is merged, encoded and
// appended, says which records are full). So an interrupted job does not
// restart from step 0: replay keeps each job's chain — its last full record
// and the deltas after it — and re-queues the job with it, and at dispatch
// the chain is folded and the job's partitions restore their walkers
// mid-budget, preserving every step up to the last checkpoint. The state is
// the only fact the record holds: its step count is WindowsDone, and the
// progress a checkpoint shows (steps and concentrations) is re-derived from
// the folded chain on replay, exactly as OnSync derived it live. A chain
// that does not fold is dropped, and its job re-runs from scratch.
//
// Every other record payload is JSON. encoding/json round-trips float64
// exactly (shortest-representation encoding), so a result warmed from the
// journal is byte-identical to the run that produced it — the same property
// that makes the in-memory result cache sound. Replay tells the checkpoint
// forms apart by their first bytes: a JSON object starts with '{', a full
// snapshot with its "GMST" magic, a delta with its "GMSD" one. Journals of
// older daemons hold JSON checkpoint records (recCheckpoint, with the
// snapshot in base64) and still resume; an older daemon refuses a journal
// holding snapshot records at replay, loudly, because the bytes are not
// JSON. Every snapshot, of any form, is validated again by
// core.DecodeEnsembleState and core.ApplyCheckpointDelta before any resume.

// recSubmitted is the payload of a TypeSubmitted record.
type recSubmitted struct {
	Spec Spec `json:"spec"`
	// Cached marks a submission answered from the result cache without a
	// run; its terminal record carries no result payload (the cache entry of
	// the originating run, replayed earlier in the log, already holds it).
	Cached bool `json:"cached,omitempty"`
	// GraphMeta fingerprints the topology the spec was admitted against.
	// Within one process a registered name is never re-bound, but across a
	// restart the operator may point the same -graph name at a different
	// file; recovery compares this fingerprint against the freshly
	// registered graph and refuses to warm the cache (or re-run the job)
	// from results that belong to different topology.
	GraphMeta *GraphInfo `json:"graph_meta,omitempty"`
	// RequestID is the trace ID of the HTTP request that admitted the job, so
	// a recovered job still answers "which request asked for this" after a
	// restart.
	RequestID string `json:"request_id,omitempty"`
}

// A TypeStarted record has no payload: replay reads only its type and time.
// Older daemons wrote the resumed step count into a resumed job's started
// record, and replay ignores that body.

// recCheckpoint is the JSON checkpoint payload older daemons wrote, read by
// replay and never written. A record is resumable when it carries a
// Snapshot; one without (written before snapshots were journaled) restores
// progress only. Older daemons also wrote a payload version ("v"), which
// replay ignores.
type recCheckpoint struct {
	Steps         int       `json:"steps"`
	Concentration []float64 `json:"concentration,omitempty"`
	// Concentrations is the multi-size counterpart of Concentration: one
	// vector per requested size, keyed by k.
	Concentrations map[int][]float64 `json:"concentrations,omitempty"`
	// Snapshot is core.EnsembleState.Encode() of the daemon that wrote it:
	// GMST version 2, or the GEST version 1 (single-size) and GMST version 1
	// (multi-size) blobs of the builds before the engines merged; the one
	// decoder reads them all, and the current GMST version 3.
	Snapshot []byte `json:"snapshot,omitempty"`
}

// legacyCheckpoint decodes payload as an older daemon's JSON checkpoint
// record. It reports false for anything else: a current record, whose
// payload is the raw snapshot, or a payload that parses as neither, which
// replay then treats as a snapshot that does not decode.
func legacyCheckpoint(payload []byte) (recCheckpoint, bool) {
	var p recCheckpoint
	if len(payload) == 0 || payload[0] != '{' || json.Unmarshal(payload, &p) != nil {
		return recCheckpoint{}, false
	}
	return p, true
}

// recDone is the payload of a TypeDone record. At most one of the two fields
// is set (none for a cache hit): Result for a job submitted with k, Results
// (keyed by size) for one submitted with sizes.
type recDone struct {
	Result  *core.Result         `json:"result,omitempty"`
	Results map[int]*core.Result `json:"results,omitempty"`
}

// recDoneOf renders a finished job's result in the shape its spec calls for.
func recDoneOf(spec Spec, res *core.MultiResult) recDone {
	if spec.multi() {
		return recDone{Results: res.Results}
	}
	return recDone{Result: res.Results[spec.K]}
}

// result is recDoneOf's inverse: the per-size result either shape carries
// (nil for a cache hit's empty record).
func (p recDone) result(spec Spec) *core.MultiResult {
	results := p.Results
	if p.Result != nil {
		results = map[int]*core.Result{spec.K: p.Result}
	}
	if len(results) == 0 {
		return nil
	}
	res := &core.MultiResult{Results: results}
	for _, r := range results {
		res.Steps = r.Steps // every size covers the same window count
	}
	return res
}

// recFailed is the payload of TypeFailed and TypeCanceled records.
type recFailed struct {
	Error string `json:"error,omitempty"`
}

// journalAppendLocked appends one record with a JSON payload (none for nil)
// to the ordered append queue, best effort: a failed write is reported by
// counter rather than failing the job — the daemon keeps serving from memory
// if the disk fills. Caller holds m.mu, which is what fixes the on-disk
// record order to the in-memory transition order; the write itself (and any
// fsync) happens on the writer goroutine, off the lock. No-op while
// replaying (replay must not re-journal what it reads) or when the manager
// runs without a data dir.
func (m *Manager) journalAppendLocked(typ journal.Type, jobID string, payload any) {
	if m.jnl == nil || m.replaying {
		return
	}
	var body []byte
	if payload != nil {
		var err error
		if body, err = json.Marshal(payload); err != nil {
			// Marshal failures never reach the journal, so the journal cannot
			// count them itself.
			m.met.journal.Errors.Inc()
			return
		}
	}
	m.journalAppendRawLocked(typ, jobID, body)
}

// journalAppendRawLocked is journalAppendLocked for a payload already in its
// record encoding: a checkpoint's snapshot bytes, which the record takes
// over. Caller holds m.mu.
func (m *Manager) journalAppendRawLocked(typ journal.Type, jobID string, body []byte) {
	if m.jnl == nil || m.replaying {
		return
	}
	// Stamp the time at enqueue: the record's logical time is the state
	// transition, not the (later) asynchronous write.
	m.pushJournalLocked(journal.Record{
		Type: typ, Job: jobID, Time: time.Now().UnixNano(), Payload: body,
	})
}

// journalTerminalLocked records a job reaching its final state. Caller
// holds m.mu.
func (m *Manager) journalTerminalLocked(j *job) {
	switch j.state {
	case StateDone:
		p := recDone{}
		if !j.cached { // cache hits replay their result via the original run
			p = recDoneOf(j.spec, j.result)
		}
		m.journalAppendLocked(journal.TypeDone, j.id, p)
	case StateFailed:
		m.journalAppendLocked(journal.TypeFailed, j.id, recFailed{Error: j.errMsg})
	case StateCanceled:
		m.journalAppendLocked(journal.TypeCanceled, j.id, recFailed{Error: j.errMsg})
	}
}

// replay rebuilds the manager's state from the journal: the job table in
// submission order, the warm result cache, and the re-queued remainder.
// Called from NewManager before the workers start, so no locking is needed;
// m.replaying suppresses re-journaling.
func (m *Manager) replay() error {
	m.replaying = true
	defer func() { m.replaying = false }()

	metas := make(map[string]*GraphInfo) // job ID -> admitted-against fingerprint
	// Jobs whose latest checkpoint is a snapshot record: the second pass
	// derives their progress from it.
	snapped := make(map[string]bool)
	err := m.jnl.Replay(func(rec journal.Record) error {
		j := m.jobs[rec.Job]
		if rec.Type != journal.TypeSubmitted && j == nil {
			// The job's submitted record was compacted away or its segment
			// lost; without a spec the record cannot be applied. Skip rather
			// than fail the whole recovery.
			return nil
		}
		switch rec.Type {
		case journal.TypeSubmitted:
			var p recSubmitted
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return fmt.Errorf("service: replay %s %s: %w", rec.Type, rec.Job, err)
			}
			if j == nil {
				j = &job{id: rec.Job, done: make(chan struct{})}
				m.jobs[rec.Job] = j
				m.order = append(m.order, rec.Job)
			}
			j.spec = p.Spec
			j.state = StateQueued
			j.cached = p.Cached
			j.coalesced = 1
			j.created = time.Unix(0, rec.Time)
			j.progress = Progress{Total: p.Spec.Steps}
			j.traceID = p.RequestID
			metas[j.id] = p.GraphMeta
		case journal.TypeStarted:
			j.state = StateRunning
			j.started = time.Unix(0, rec.Time)
		case journal.TypeCheckpoint:
			p, legacy := legacyCheckpoint(rec.Payload)
			if !legacy {
				// A full record starts the job's chain and a delta extends
				// it; nothing is decoded here. The chain's last record wins.
				if core.IsCheckpointDelta(rec.Payload) {
					j.resumeChain = append(j.resumeChain, rec.Payload)
				} else {
					j.resumeChain = [][]byte{rec.Payload}
				}
				j.resumeSteps = 0
				snapped[j.id] = true
				break
			}
			delete(snapped, j.id)
			j.progress.Steps = p.Steps
			j.progress.Concentration = p.Concentration
			j.progress.Concentrations = p.Concentrations
			// The latest snapshot wins: if this job turns out interrupted,
			// the requeue below resumes it from here instead of step 0.
			if len(p.Snapshot) > 0 {
				j.resumeChain = [][]byte{p.Snapshot}
				j.resumeSteps = p.Steps
			}
		case journal.TypeDone:
			var p recDone
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return fmt.Errorf("service: replay %s %s: %w", rec.Type, rec.Job, err)
			}
			j.state = StateDone
			j.finished = time.Unix(0, rec.Time)
			j.result = p.result(j.spec)
			// A done job shows its result: its chain is never folded.
			j.resumeChain, j.resumeSteps = nil, 0
			delete(snapped, j.id)
		case journal.TypeFailed, journal.TypeCanceled:
			var p recFailed
			if err := json.Unmarshal(rec.Payload, &p); err != nil {
				return fmt.Errorf("service: replay %s %s: %w", rec.Type, rec.Job, err)
			}
			if rec.Type == journal.TypeFailed {
				j.state = StateFailed
			} else {
				j.state = StateCanceled
			}
			j.finished = time.Unix(0, rec.Time)
			j.errMsg = p.Error
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Second pass in submission order: warm the cache from completed runs,
	// close terminal jobs' done channels, and re-queue whatever the crash
	// interrupted. Both actions require the job's recorded graph
	// fingerprint to match the currently registered graph — a name re-bound
	// to different topology across the restart must neither serve the old
	// results nor silently run old specs against the new graph.
	sameBind := func(id string, graphName string) bool {
		meta := metas[id]
		if meta == nil {
			return false
		}
		info, ok := m.reg.Info(graphName)
		return ok && info.Nodes == meta.Nodes && info.Edges == meta.Edges &&
			info.MaxDegree == meta.MaxDegree
	}
	for _, id := range m.order {
		j := m.jobs[id]
		if n := jobIDNumber(id); n > m.nextID {
			m.nextID = n
		}
		if snapped[id] {
			// Re-queued, failed or canceled: the progress the job last
			// showed is its latest snapshot's.
			j.progressFromSnapshot()
		}
		if j.state.terminal() {
			j.resumeChain, j.resumeSteps = nil, 0 // snapshots die with the run
		}
		switch {
		case j.state == StateDone:
			switch {
			case j.result != nil:
				// A completed run re-warms its per-size entries, all owned by
				// this job.
				if sameBind(id, j.spec.Graph) {
					for _, k := range j.spec.sizes() {
						if r := j.result.Results[k]; r != nil {
							m.cache.put(j.spec.sizeSpec(k).key(), r, j.id)
						}
					}
					m.met.warmed.Inc()
				}
				j.progress.Steps = j.result.Steps
				j.progress.Concentration, j.progress.Concentrations = j.spec.shape(j.result.Concentrations())
			case j.cached:
				// A cache-hit job: its result lives with the originating run,
				// replayed (and cached) earlier in the log — unless the LRU
				// has since evicted it, in which case the view simply omits
				// the result body.
				if res, ok := m.cacheGetLocked(j.spec); ok {
					j.result = res
				}
			}
			close(j.done)
		case j.state.terminal():
			close(j.done)
		default:
			// Queued or running at crash: re-queue with a fresh slot at the
			// original priority — but only onto the same topology it was
			// admitted against. A job whose replay carried a checkpoint
			// snapshot resumes mid-budget: its progress survives, the
			// scheduler will charge only the remaining steps, and the job's
			// partitions restore their walkers from the snapshot at dispatch
			// (which replaces the provisional resumed-step figure set here
			// by what they actually restore). A spec checkSpec refuses (a
			// corrupt or hand-edited journal) fails here with its error, as
			// admission would have refused it, before it takes a slot.
			if !sameBind(id, j.spec.Graph) {
				j.state = StateFailed
				j.errMsg = fmt.Sprintf("service: graph %q is not registered with the same topology it was submitted against; job not re-run", j.spec.Graph)
				close(j.done)
				continue
			}
			if err := checkSpec(j.spec); err != nil {
				j.state = StateFailed
				j.errMsg = err.Error()
				close(j.done)
				continue
			}
			j.state = StateQueued
			j.started = time.Time{}
			if len(j.resumeChain) > 0 {
				j.progress.Total = j.spec.Steps
				j.progress.ResumedSteps = j.resumeSteps
				m.met.resumable.Inc()
			} else {
				j.progress = Progress{Total: j.spec.Steps}
			}
			if err := m.sched.enqueue(j); err != nil {
				j.state = StateFailed
				j.errMsg = fmt.Sprintf("recovery: %v", err)
				close(j.done)
				continue
			}
			m.inflight[j.spec.key()] = j
			m.met.recovered.Inc()
		}
	}
	m.pruneLocked()
	if m.jnl.Segments() > m.opts.CompactSegments {
		return m.compactJournal()
	}
	return nil
}

// progressFromSnapshot re-derives the progress of a replayed job from its
// latest checkpoint, as runJob's OnSync derived it live: the steps are the
// folded chain's WindowsDone, the concentrations those of its merged result.
// A chain that does not fold (or merge) is dropped, so a re-queued job runs
// from scratch.
func (j *job) progressFromSnapshot() {
	st, err := foldCheckpoints(j.resumeChain)
	var res *core.MultiResult
	if err == nil {
		res, err = st.MergedResult()
	}
	if err != nil {
		j.resumeChain, j.resumeSteps = nil, 0
		j.progress = Progress{Total: j.spec.Steps}
		return
	}
	j.resumeSteps = st.WindowsDone
	j.progress.Steps = st.WindowsDone
	j.progress.Concentration, j.progress.Concentrations = j.spec.shape(res.Concentrations())
}

// foldCheckpoints folds a job's checkpoint chain — the payload of a full
// checkpoint record and those of the delta records after it, in log order —
// into the state its last record stands for. A chain that does not fold is
// an error, never a state: its head is not a full record, a delta was
// written against another state, or a payload does not parse.
func foldCheckpoints(chain [][]byte) (*core.EnsembleState, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("service: no checkpoint to fold")
	}
	st, err := core.DecodeEnsembleState(chain[0])
	for _, delta := range chain[1:] {
		if err != nil {
			return nil, err
		}
		st, err = core.ApplyCheckpointDelta(st, delta)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// jobIDNumber parses the numeric suffix of a "j-N" job ID (0 if malformed).
func jobIDNumber(id string) int {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
