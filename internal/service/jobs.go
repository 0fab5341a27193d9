package service

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service/journal"
	"repro/internal/stats"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is a live snapshot of a running job, updated at the ensemble's
// checkpoint barriers.
type Progress struct {
	Steps         int       `json:"steps"`
	Total         int       `json:"total"`
	Concentration []float64 `json:"concentration,omitempty"`
	// Concentrations is the multi-size counterpart of Concentration: one
	// live concentration vector per requested size, keyed by k.
	Concentrations map[int][]float64 `json:"concentrations,omitempty"`
	// ResumedSteps is the number of already-walked steps this job kept by
	// restoring a snapshot instead of re-walking them: a journaled checkpoint
	// after a crash, or a partition's last streamed frame after a worker
	// failure. Each partition credits what it actually restored, once, as it
	// completes (0 for jobs that never crashed — or whose snapshot could not
	// be restored, in which case they restart from scratch).
	ResumedSteps int `json:"resumed_steps,omitempty"`
}

// job is the Manager-internal mutable record; all fields are guarded by
// Manager.mu. Clients see JobView snapshots.
type job struct {
	id        string
	spec      Spec
	traceID   string // request ID of the submission that created the job
	state     State
	progress  Progress
	result    *core.MultiResult // per-size results, keyed by k (one entry for a single-size job)
	errMsg    string
	cached    bool
	coalesced int // number of submissions answered by this run
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	done      chan struct{}   // closed on reaching a terminal state
	subs      []chan JobEvent // live event streams (SSE); closed on finish

	// resumeSnap/resumeSteps carry the latest journaled checkpoint snapshot
	// of a recovery-re-queued job: runJob decodes it at dispatch and the
	// job's partitions restore from it, and the scheduler charges only the
	// remaining budget.
	resumeSnap  []byte
	resumeSteps int
}

// JobView is the immutable client-facing snapshot of a job.
type JobView struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// RequestID traces the job back to the HTTP request that created it
	// (the X-Request-Id the front door assigned or accepted). It rides
	// every poll response and SSE event for the job, so one grep over the
	// access logs follows a request end to end.
	RequestID string     `json:"request_id,omitempty"`
	State     State      `json:"state"`
	Progress  Progress   `json:"progress"`
	Result    *JobResult `json:"result,omitempty"`
	// Results renders a completed multi-size job: one JobResult per
	// requested size, keyed by k (Result stays empty for those jobs).
	Results map[int]*JobResult `json:"results,omitempty"`
	Error   string             `json:"error,omitempty"`
	// Cached marks a job answered from the result cache without a run.
	Cached bool `json:"cached"`
	// Coalesced counts submissions sharing this run (1 = no sharing).
	Coalesced int `json:"coalesced"`
	// CreatedAt/StartedAt/FinishedAt trace the job through the queue; the
	// gap between the first two is its queue wait (the scheduler's
	// fairness metric).
	CreatedAt  time.Time `json:"created_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// JobEvent is one element of a job's event stream (the SSE endpoint and
// any in-process subscriber): a full snapshot tagged with why it was
// emitted.
type JobEvent struct {
	// Type is "snapshot" (subscription opening), "checkpoint" (progress
	// update), or the terminal state ("done", "failed", "canceled").
	Type string  `json:"type"`
	Job  JobView `json:"job"`
}

// JobResult renders a completed estimation.
type JobResult struct {
	Method        string    `json:"method"`
	Steps         int       `json:"steps"`
	ValidSamples  int       `json:"valid_samples"`
	Concentration []float64 `json:"concentration"`
	Weights       []float64 `json:"weights"`
}

// Stats aggregates service counters for observability and tests. Every
// count is read back from the obs metrics registry also served at
// GET /metrics, so the JSON and Prometheus views can never disagree.
type Stats struct {
	Jobs int `json:"jobs"`
	Runs int `json:"runs"` // estimations actually executed
	// MultiRuns counts the subset of Runs that were shared-walk multi-size
	// ensembles (each paying one step budget for several sizes).
	MultiRuns   int `json:"multi_runs,omitempty"`
	CacheHits   int `json:"cache_hits"`   // submissions answered from the LRU
	CacheSize   int `json:"cache_size"`   // entries currently cached
	Coalesced   int `json:"coalesced"`    // submissions merged into an in-flight run
	Workers     int `json:"workers"`      // worker-pool size
	MaxWalkers  int `json:"max_walkers"`  // per-job walker cap
	QueueDepth  int `json:"queue_depth"`  // jobs waiting for a worker
	ActiveJobs  int `json:"active_jobs"`  // jobs currently running
	GraphsCount int `json:"graphs_count"` // registered graphs

	// QueueByClass breaks the backlog down by priority class.
	QueueByClass map[string]int `json:"queue_by_class,omitempty"`
	// QueueWait reports p50/p95/p99 queue wait in seconds per priority
	// class over a bounded window of recent dispatches (raw samples through
	// stats.Quantile; the /metrics histograms carry the full distribution).
	QueueWait map[string]QuantileSummary `json:"queue_wait_seconds,omitempty"`
	// RecoveredJobs counts jobs re-queued by journal replay at startup.
	RecoveredJobs int `json:"recovered_jobs"`
	// ResumableJobs counts recovered jobs that carried a checkpoint snapshot
	// (re-queued mid-budget rather than from step 0).
	ResumableJobs int `json:"resumable_jobs,omitempty"`
	// ResumedSteps is the cumulative number of walk steps saved by restoring
	// checkpoint snapshots instead of restarting interrupted jobs.
	ResumedSteps int64 `json:"resumed_steps"`
	// WarmedResults counts cache entries restored from the journal.
	WarmedResults int `json:"warmed_results"`
	// JournalSegments is the on-disk segment count (0 without -data-dir).
	JournalSegments int `json:"journal_segments,omitempty"`
	// JournalErrors counts append/compact failures (the daemon keeps
	// serving from memory; nonzero here means durability is degraded).
	JournalErrors int `json:"journal_errors,omitempty"`
}

// Options tunes the Manager. The zero value gets production defaults.
type Options struct {
	// Workers bounds concurrent jobs. 0 sizes the pool with the shared
	// trial-pool rule: stats.PoolWorkers(MaxWalkers), so job parallelism ×
	// walkers stays at GOMAXPROCS.
	Workers int
	// MaxWalkers caps Spec.Walkers (and feeds the default pool sizing).
	// 0 means 8.
	MaxWalkers int
	// MultiSizes is the admission allowlist for multi-size jobs: every entry
	// of Spec.Sizes must appear in it. nil means 3, 4, 5 (every size the
	// engine supports); an explicit empty-but-non-nil slice disables
	// multi-size submissions entirely.
	MultiSizes []int
	// CacheSize is the LRU capacity in results. 0 means 256; negative
	// disables caching.
	CacheSize int
	// SnapshotEvery is the checkpoint spacing in windows for progress
	// snapshots and journal checkpoint records. 0 derives ~64 checkpoints
	// per job (min 250 windows apart).
	SnapshotEvery int
	// MaxJobs bounds retained job records: beyond it, the oldest terminal
	// jobs (completed runs, instant cache hits) are evicted from the table,
	// so a long-running daemon's memory does not grow with request count.
	// Evicted job IDs answer 404 on later polls. 0 means 4096.
	MaxJobs int
	// DataDir enables durability: the job journal lives under
	// DataDir/journal, is replayed on startup (rebuilding the job table,
	// warming the result cache, re-queuing interrupted jobs), and records
	// every lifecycle transition from then on. Empty keeps the pre-PR-4
	// volatile behavior.
	DataDir string
	// SegmentBytes is the journal's segment-rotation threshold (0 = 4 MiB).
	SegmentBytes int64
	// Fsync forces every journal append to disk. Off by default: appends
	// survive a process crash either way; only power loss can drop a tail,
	// which reopen truncates cleanly.
	Fsync bool
	// CompactSegments triggers journal compaction once the log spans more
	// than this many segments. 0 means 8.
	CompactSegments int
	// NewClient builds the access client for a job's graph. nil means the
	// in-memory access.NewGraphClient. Tests inject wrappers
	// (access.NewDelayed, access.NewCounting, failing clients) here.
	NewClient func(g *graph.Graph) access.Client
	// Peers lists worker base URLs for distributed execution. Jobs whose
	// spec sets Nodes > 1 fan their walker ensemble over the fleet
	// (internal/dist); empty disables distribution and such jobs run as
	// every other job does, as one partition in this process. The scheduler
	// charges the coordinator one worker slot for the whole job regardless
	// of fan-out.
	Peers []string
	// DistBackoff is the base delay between a partition's remote attempts
	// (0 takes the dist package default, 250ms). Tests shorten it.
	DistBackoff time.Duration
	// Metrics is the observability registry the manager records into (and
	// GET /metrics renders). nil creates a private registry — Stats is
	// derived from the metric handles either way.
	Metrics *obs.Registry
}

// maxQueued bounds the admission backlog across all priority classes; Submit
// fails once it is full.
const maxQueued = 1024

func (o Options) withDefaults() Options {
	// Non-positive knobs take the default rather than producing a pool with
	// zero workers (which would strand every job in "queued" forever) or a
	// panic on a negative channel capacity.
	if o.MaxWalkers <= 0 {
		o.MaxWalkers = 8
	}
	if o.Workers <= 0 {
		o.Workers = stats.PoolWorkers(o.MaxWalkers)
	}
	if o.MultiSizes == nil {
		o.MultiSizes = []int{3, 4, 5}
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.CacheSize < 0 {
		o.CacheSize = 0
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 8
	}
	if o.NewClient == nil {
		o.NewClient = func(g *graph.Graph) access.Client { return access.NewGraphClient(g) }
	}
	return o
}

// Manager owns the job lifecycle: admission, coalescing, caching, the
// priority scheduler and its bounded worker pool, progress snapshots and
// event streams, journaling, and cancellation. All methods are safe for
// concurrent use.
type Manager struct {
	reg  *Registry
	opts Options

	// met holds every counter the manager keeps; /v1/stats and /metrics
	// are both views of it (metrics.go).
	met *serviceMetrics

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string         // submission order, for List
	inflight  map[specKey]*job // non-terminal job per spec key (single flight)
	cache     *resultCache
	jnl       *journal.Log
	sched     *scheduler
	waits     map[Priority]*waitReservoir // recent queue waits per class
	nextID    int
	replaying bool
	closed    bool

	// jq is the ordered append queue between state transitions (enqueued
	// under mu) and the journal writer goroutine (asyncjournal.go).
	jq    *appendQueue
	jnlWg sync.WaitGroup

	wg sync.WaitGroup
}

// NewManager opens the journal (when Options.DataDir is set), replays it to
// recover pre-crash state, starts the worker pool, and returns the manager.
// Call Close to stop it.
func NewManager(reg *Registry, opts Options) (*Manager, error) {
	opts = opts.withDefaults()
	met := newServiceMetrics(opts.Metrics, reg)
	m := &Manager{
		reg:      reg,
		opts:     opts,
		met:      met,
		jobs:     make(map[string]*job),
		inflight: make(map[specKey]*job),
		cache:    newResultCache(opts.CacheSize, met.cacheEvictions),
		sched:    newScheduler(maxQueued, met.queueDepth),
		waits:    make(map[Priority]*waitReservoir),
		jq:       newAppendQueue(),
	}
	m.installCollector()
	if opts.DataDir != "" {
		jnl, err := journal.Open(filepath.Join(opts.DataDir, "journal"), journal.Options{
			SegmentBytes: opts.SegmentBytes,
			Fsync:        opts.Fsync,
			Metrics:      met.journal,
		})
		if err != nil {
			return nil, err
		}
		m.jnl = jnl
		if err := m.replay(); err != nil {
			jnl.Close()
			return nil, err
		}
		m.jnlWg.Add(1)
		go m.journalWriter()
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close drains the pool: running jobs are cancelled, queued jobs are marked
// canceled, workers exit, and the journal is synced shut.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.sched.drain() {
		delete(m.inflight, j.spec.key())
		m.finishLocked(j, StateCanceled, nil, context.Canceled)
	}
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
	if m.jnl != nil {
		// Workers are gone; drain whatever they enqueued, then close shop.
		m.jq.close()
		m.jnlWg.Wait()
		m.jnl.Close()
	}
}

// Submit admits a spec and returns the job answering it. The returned view
// may be a terminal cache hit (state "done", Cached), an in-flight job other
// submitters already share (Coalesced > 1), or a fresh queued job awaiting
// dispatch in its priority class.
func (m *Manager) Submit(spec Spec) (JobView, error) {
	return m.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the request context: the front door's
// request ID (obs.WithRequestID) is stamped into the job it creates, so
// poll responses and SSE events trace back to the submitting request.
func (m *Manager) SubmitCtx(ctx context.Context, spec Spec) (JobView, error) {
	// Normalize before keying: the engine treats Walkers 0 and 1 identically
	// (one walker, unchanged seed stream), so they must hit the same cache
	// and single-flight entries; likewise the empty priority is batch. The
	// size list is order-insensitive and a one-size multi job is the same
	// run as the plain single-size job (the shared-walk per-size results are
	// byte-identical to independent runs), so both collapse to canonical
	// forms that share cache and coalescing entries.
	if spec.Walkers == 0 {
		spec.Walkers = 1
	}
	if spec.multi() {
		spec.Sizes = slices.Compact(slices.Sorted(slices.Values(spec.Sizes)))
		// The collapse is gated on K == 0 so a spec illegally setting both
		// fields still reaches validate intact and is rejected there.
		if len(spec.Sizes) == 1 && spec.K == 0 {
			spec.K, spec.Sizes = spec.Sizes[0], nil
		}
	}
	p, err := ParsePriority(string(spec.Priority))
	if err != nil {
		return JobView{}, err
	}
	spec.Priority = p
	if err := m.validate(spec); err != nil {
		return JobView{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, fmt.Errorf("service: manager closed")
	}
	key := spec.key()
	m.met.jobs.With("submitted").Inc()
	// Cache hit: a completed identical run answers instantly via a fresh
	// (already terminal) job record. A multi-size submission hits when every
	// one of its per-size entries is warm — its own earlier fan-out, or any
	// equivalent single-size runs — and is reassembled from them.
	if res, ok := m.cacheGetLocked(spec); ok {
		m.met.cacheHits.Inc()
		j := m.newJobLocked(spec)
		j.traceID = obs.RequestIDFrom(ctx)
		j.cached = true
		j.coalesced = 1
		m.journalAppendLocked(journal.TypeSubmitted, j.id,
			recSubmitted{Spec: spec, Cached: true, GraphMeta: m.graphMeta(spec.Graph), RequestID: j.traceID})
		m.finishLocked(j, StateDone, res, nil)
		return j.view(), nil
	}
	m.met.cacheMisses.Inc()
	// Single flight: an identical spec already queued or running absorbs
	// this submission. A more urgent submitter promotes a still-queued job
	// to its class — everyone coalesced onto it benefits.
	if j, ok := m.inflight[key]; ok {
		j.coalesced++
		m.met.coalesced.Inc()
		if j.state == StateQueued && priorityRank(spec.Priority) > priorityRank(j.spec.Priority) {
			if m.sched.promote(j, spec.Priority) {
				j.spec.Priority = spec.Priority
				// Re-journal the admission with the effective class: replay
				// applies submitted records last-wins, so a crash after the
				// promotion re-queues the job at its promoted priority
				// instead of silently demoting it.
				m.journalAppendLocked(journal.TypeSubmitted, j.id,
					recSubmitted{Spec: j.spec, GraphMeta: m.graphMeta(j.spec.Graph), RequestID: j.traceID})
			}
		}
		return j.view(), nil
	}
	j := m.newJobLocked(spec)
	j.traceID = obs.RequestIDFrom(ctx)
	j.coalesced = 1
	if err := m.sched.enqueue(j); err != nil {
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		return JobView{}, err
	}
	m.inflight[key] = j
	m.journalAppendLocked(journal.TypeSubmitted, j.id,
		recSubmitted{Spec: spec, GraphMeta: m.graphMeta(spec.Graph), RequestID: j.traceID})
	return j.view(), nil
}

// cacheGetLocked answers a submission from the result cache by reassembling
// its per-size entries: every size must be warm, and entries left by
// single-size runs are interchangeable with a multi-size run's fan-out
// entries because the shared-walk per-size results are byte-identical to
// independent runs. Caller holds m.mu.
func (m *Manager) cacheGetLocked(spec Spec) (*core.MultiResult, bool) {
	sizes := spec.sizes()
	results := make(map[int]*core.Result, len(sizes))
	for _, k := range sizes {
		res, ok := m.cache.get(spec.sizeSpec(k).key())
		if !ok {
			return nil, false
		}
		results[k] = res
	}
	return &core.MultiResult{Steps: results[sizes[0]].Steps, Results: results}, true
}

// graphMeta fingerprints the currently registered graph for the journal
// (nil when the name is gone, which recovery treats as unverifiable).
func (m *Manager) graphMeta(name string) *GraphInfo {
	info, ok := m.reg.Info(name)
	if !ok {
		return nil
	}
	return &info
}

// newJobLocked allocates and indexes a queued job. Caller holds m.mu.
func (m *Manager) newJobLocked(spec Spec) *job {
	m.nextID++
	j := &job{
		id:       fmt.Sprintf("j-%d", m.nextID),
		spec:     spec,
		state:    StateQueued,
		progress: Progress{Total: spec.Steps},
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j
}

// finishLocked moves a job to a terminal state, journals the transition,
// notifies its event streams, and prunes old history. Caller holds m.mu.
func (m *Manager) finishLocked(j *job, state State, res *core.MultiResult, err error) {
	j.state = state
	j.finished = time.Now()
	m.met.jobs.With(string(state)).Inc()
	if !j.started.IsZero() {
		m.met.runDuration.With(string(j.spec.Priority)).
			Observe(j.finished.Sub(j.started).Seconds())
	}
	if res != nil {
		j.result = res
		j.progress.Steps = res.Steps
		j.progress.Concentration, j.progress.Concentrations = j.spec.shape(res.Concentrations())
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	j.resumeSnap, j.resumeSteps = nil, 0 // snapshots die with the run
	m.journalTerminalLocked(j)
	// Terminal delivery is guaranteed even to slow subscribers: if a
	// buffer is full, the oldest checkpoint is dropped to make room — all
	// sends happen under m.mu, so the freed slot cannot be stolen. (The
	// job may be pruned from the table right below, so the handler's
	// fetch-final-state fallback cannot be relied on here.)
	if len(j.subs) > 0 {
		ev := JobEvent{Type: string(state), Job: j.view()}
		for _, ch := range j.subs {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- ev:
				default:
				}
			}
		}
	}
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
	m.pruneLocked()
}

// notifySubsLocked pushes an event to every subscriber of j, dropping it
// for subscribers whose buffers are full (a slow SSE client misses
// intermediate checkpoints; terminal state delivery is guaranteed by the
// channel close plus a final Get). Caller holds m.mu.
func (m *Manager) notifySubsLocked(j *job, typ string) {
	if len(j.subs) == 0 {
		return
	}
	ev := JobEvent{Type: typ, Job: j.view()}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe opens an event stream for a job: the returned channel yields an
// initial "snapshot" event, then "checkpoint" events as the run progresses,
// and closes after the terminal event. The unsubscribe function detaches a
// no-longer-interested consumer (safe to call after the channel closed).
func (m *Manager) Subscribe(id string) (<-chan JobEvent, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("service: unknown job %q", id)
	}
	ch := make(chan JobEvent, 16)
	ch <- JobEvent{Type: "snapshot", Job: j.view()}
	if j.state.terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subs = append(j.subs, ch)
	unsub := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, sub := range j.subs {
			if sub == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
	return ch, unsub, nil
}

// pruneLocked evicts the oldest terminal jobs while the table exceeds
// MaxJobs, bounding daemon memory under sustained traffic (every
// submission — including instant cache hits — allocates a record). Live
// jobs are never evicted. Caller holds m.mu.
func (m *Manager) pruneLocked() {
	for i := 0; i < len(m.order) && len(m.jobs) > m.opts.MaxJobs; {
		id := m.order[i]
		if !m.jobs[id].state.terminal() {
			i++
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
	}
}

// Cancel stops a queued or running job. Cancelling a terminal job is a
// no-op that reports its final state. Note that a coalesced job is shared:
// cancelling it cancels it for every submitter. Running jobs stop within a
// few hundred walk transitions (the walkers' in-stage context polls).
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	switch j.state {
	case StateQueued:
		m.sched.remove(j)
		delete(m.inflight, j.spec.key())
		m.finishLocked(j, StateCanceled, nil, context.Canceled)
	case StateRunning:
		j.cancel() // observed at the walkers' next context poll; settle finishes the job
	}
	return j.view(), nil
}

// DropGraph purges every cached result for the named graph. The HTTP layer
// calls it when a graph is removed from the registry, so a later re-bind of
// the name to different topology cannot serve stale results. Queued jobs
// referencing the graph are left to fail cleanly at dispatch.
func (m *Manager) DropGraph(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.dropGraph(name)
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Wait blocks until the job reaches a terminal state or the context is
// done, and returns the final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.view(), nil
}

// List returns snapshots of all jobs in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// Stats returns a snapshot of the service counters, read back from the
// same obs registry that backs GET /metrics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Jobs:          len(m.jobs),
		Runs:          int(m.met.runs.Value()),
		MultiRuns:     int(m.met.multiRuns.Value()),
		CacheHits:     int(m.met.cacheHits.Value()),
		CacheSize:     m.cache.len(),
		Coalesced:     int(m.met.coalesced.Value()),
		Workers:       m.opts.Workers,
		MaxWalkers:    m.opts.MaxWalkers,
		QueueDepth:    m.sched.depth(),
		ActiveJobs:    int(m.met.jobsActive.Value()),
		GraphsCount:   len(m.reg.List()),
		QueueByClass:  m.sched.depthByClass(),
		QueueWait:     m.waitQuantilesLocked(),
		RecoveredJobs: int(m.met.recovered.Value()),
		ResumableJobs: int(m.met.resumable.Value()),
		ResumedSteps:  m.met.walkResumed.Value(),
		WarmedResults: int(m.met.warmed.Value()),
		JournalErrors: int(m.met.journal.Errors.Value()),
	}
	if m.jnl != nil {
		st.JournalSegments = m.jnl.Segments()
	}
	return st
}

// view renders the client-facing snapshot. Caller holds Manager.mu.
func (j *job) view() JobView {
	v := JobView{
		ID:         j.id,
		Spec:       j.spec,
		RequestID:  j.traceID,
		State:      j.state,
		Progress:   j.progress,
		Error:      j.errMsg,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
	}
	if conc := j.progress.Concentration; conc != nil {
		v.Progress.Concentration = append([]float64(nil), conc...)
	}
	if concs := j.progress.Concentrations; concs != nil {
		cp := make(map[int][]float64, len(concs))
		for k, c := range concs {
			cp[k] = append([]float64(nil), c...)
		}
		v.Progress.Concentrations = cp
	}
	if j.state == StateDone && j.result != nil {
		method := j.spec.config().MethodName()
		if j.spec.multi() {
			v.Results = make(map[int]*JobResult, len(j.result.Results))
			for k, r := range j.result.Results {
				v.Results[k] = renderResult(r, method)
			}
		} else if r := j.result.Results[j.spec.K]; r != nil {
			v.Result = renderResult(r, method)
		}
	}
	return v
}

// renderResult maps an engine result of the named method onto the
// client-facing form.
func renderResult(r *core.Result, method string) *JobResult {
	return &JobResult{
		Method:        method,
		Steps:         r.Steps,
		ValidSamples:  r.ValidSamples,
		Concentration: r.Concentration(),
		Weights:       append([]float64(nil), r.Weights...),
	}
}
