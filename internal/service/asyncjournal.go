package service

import (
	"repro/internal/core"
	"repro/internal/service/journal"
)

// The asynchronous journal pipeline: state transitions queue their records
// under Manager.mu — which fixes the on-disk order to match the in-memory
// transition order — but the actual writes (and fsyncs, and compactions)
// happen on a single writer goroutine draining the queue FIFO. The queue is
// one more piece of state under Manager.mu (Manager.jops, with the jnlWake
// condition on that lock); the writer holds the lock only to take the whole
// queued batch, and never across disk I/O. A slow disk under -fsync
// therefore stalls the writer, never the API surface: Submit, checkpoint
// callbacks and finishes release Manager.mu immediately after the
// (in-memory) append.
//
// The trade-off is a bounded durability window: a record is on disk a queue
// drain after its transition, not before the submitter's HTTP response. A
// crash can lose the tail of the queue — the same tail a non-fsync
// synchronous journal could lose from the page cache — and recovery handles
// any prefix of the history by construction.
//
// The queue is unbounded on purpose: a bounded queue would re-couple the API
// to disk speed the moment it filled, and queue memory is bounded in
// practice by job activity (records are a few KB; the writer drains at disk
// speed).

// pushJournalLocked queues rec for the writer and wakes it. Once the queue
// is closed the record is dropped: the manager is shutting down. Caller
// holds m.mu.
func (m *Manager) pushJournalLocked(rec journal.Record) {
	if m.jnlClosed {
		return
	}
	m.jops = append(m.jops, rec)
	m.jnlWake.Signal()
}

// closeJournalQueue marks the append queue closed: the writer writes what is
// already queued and exits, and later records are dropped.
func (m *Manager) closeJournalQueue() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jnlClosed = true
	m.jnlWake.Broadcast()
}

// journalWriter is the single goroutine draining the append queue into the
// journal in order. It is also where compaction triggers: only here is the
// segment count authoritative (appends are asynchronous, so a check on the
// submitting side races the rotation it is looking for), and triggering at
// the rotation that crosses the bound bounds the rewrite rate to one
// compaction per segment of growth.
func (m *Manager) journalWriter() {
	defer m.jnlWg.Done()
	for {
		m.mu.Lock()
		for len(m.jops) == 0 && !m.jnlClosed {
			m.jnlWake.Wait()
		}
		// Nothing is queued after the close, so a batch taken closed is the
		// last one.
		recs, closed := m.jops, m.jnlClosed
		m.jops = nil
		m.mu.Unlock()
		for _, rec := range recs {
			// The journal counts its own append failures
			// (journal.Metrics.Errors); the daemon keeps serving from
			// memory either way.
			before := m.jnl.Segments()
			_ = m.jnl.Append(rec)
			if after := m.jnl.Segments(); after > before && after > m.opts.CompactSegments {
				_ = m.compactJournal() // failures are counted; the daemon keeps serving from memory
			}
		}
		if closed {
			return
		}
	}
}

// compactJournal runs one compaction, from replay (before the writer
// goroutine and worker pool exist) or on the writer goroutine. The keep
// decision needs the job table and cache-owner set, which Manager.mu guards:
// they are snapshotted under the lock, then the (slow) segment rewrite runs
// without it — no disk I/O runs under Manager.mu. On the writer goroutine, records enqueued before this
// operation are already on disk (FIFO queue) and records enqueued after it
// land in the post-compaction segment — so a snapshot taken here is
// consistent with everything the compaction can see.
func (m *Manager) compactJournal() error {
	m.mu.Lock()
	terminal := make(map[string]bool, len(m.jobs))
	for id, j := range m.jobs {
		terminal[id] = j.state.terminal()
	}
	owners := m.cache.ownerSet()
	m.mu.Unlock()

	keep, err := m.newKeepFunc(terminal, owners)
	if err != nil {
		// The retention rule failed to build before the journal saw the
		// operation, so count the failure here; Compact itself counts its own.
		m.met.journal.Errors.Inc()
		return err
	}
	return m.jnl.Compact(keep)
}

// newKeepFunc builds the compaction retention rule over a consistent
// snapshot of the job table: cache-owning jobs keep their submitted/done
// pair (so a restart re-warms the LRU even after the producing job was
// pruned); jobs still in the table keep their submitted records, terminal
// jobs their terminal record, and live jobs their started record plus their
// checkpoint chain from its last full record on — at most
// fullCheckpointEvery records, which fold to the resume state replay would
// pick anyway ("latest wins"). Earlier checkpoints are superseded, and
// keeping them would grow the log with run length instead of the job table;
// and because the kept copies start with a full record, a replay that sees
// the old records and then the copies (a crash mid-compaction) folds to the
// same state. Spotting the last full record needs a pre-scan (the filter
// sees one record at a time), which is safe because appends and compactions
// are serialized on the journal writer goroutine — nothing lands between the
// scan and the rewrite. The returned filter is single-use: it counts the
// checkpoints it passes against the pre-scanned positions.
func (m *Manager) newKeepFunc(terminal, owners map[string]bool) (func(journal.Record) bool, error) {
	ckptTotal := make(map[string]int)
	// keepFrom is the 1-based position among the job's checkpoints of its
	// last full record (a job without one keeps only its latest).
	keepFrom := make(map[string]int)
	if err := m.jnl.Replay(func(rec journal.Record) error {
		if rec.Type == journal.TypeCheckpoint {
			ckptTotal[rec.Job]++
			if !core.IsCheckpointDelta(rec.Payload) {
				keepFrom[rec.Job] = ckptTotal[rec.Job]
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ckptSeen := make(map[string]int)
	return func(rec journal.Record) bool {
		if rec.Type == journal.TypeCheckpoint {
			ckptSeen[rec.Job]++
		}
		if owners[rec.Job] {
			return rec.Type == journal.TypeSubmitted || rec.Type == journal.TypeDone
		}
		isTerminal, ok := terminal[rec.Job]
		if !ok {
			return false
		}
		switch rec.Type {
		case journal.TypeSubmitted:
			return true
		case journal.TypeDone, journal.TypeFailed, journal.TypeCanceled:
			return isTerminal
		case journal.TypeStarted:
			return !isTerminal
		case journal.TypeCheckpoint:
			from := keepFrom[rec.Job]
			if from == 0 {
				from = ckptTotal[rec.Job]
			}
			return !isTerminal && ckptSeen[rec.Job] >= from
		}
		return false
	}, nil
}
