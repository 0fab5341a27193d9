package service

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/service/journal"
	"repro/internal/stats"
)

// This file binds the service to the obs metrics registry. The registry is
// the single source of truth for every counter the daemon keeps: the
// Prometheus exposition (/metrics) renders it directly and /v1/stats is
// derived from the same metric handles (Manager.Stats reads them back), so
// the two views can never disagree.
//
// Recording sites are chosen off the walk hot path: job-lifecycle counters
// fire on state transitions under Manager.mu, queue-wait and run-duration
// histograms at dispatch/settle, journal metrics on the async writer
// goroutine, and walk-engine counters only at checkpoints — never
// inside StepSRW (TestWalkStepZeroAllocs guards that).

// serviceMetrics holds the Manager's metric handles on a shared
// obs.Registry.
type serviceMetrics struct {
	reg *obs.Registry

	// Job lifecycle.
	jobs        *obs.CounterVec // graphletd_jobs_total{state}
	jobsActive  *obs.Gauge
	runs        *obs.Counter
	queueDepth  *obs.GaugeVec     // {class}, maintained by the scheduler
	queueWait   *obs.HistogramVec // {class}, observed at dispatch
	runDuration *obs.HistogramVec // {class}, observed at settle

	// Result cache.
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	coalesced      *obs.Counter
	cacheEntries   *obs.Gauge

	// Recovery (set once at startup replay).
	recovered *obs.Gauge
	resumable *obs.Gauge
	warmed    *obs.Gauge

	// Walk engine, recorded at checkpoints only.
	walkSteps       *obs.Counter
	walkCheckpoints *obs.Counter
	walkResumed     *obs.Counter

	// Multi-size jobs: runs dispatched, and per-size sample windows and
	// results credited at settle (each size of a shared walk covers the full
	// window budget while the walk steps are paid once).
	multiRuns    *obs.Counter
	multiSteps   *obs.CounterVec // graphletd_multi_walk_steps_total{k}
	multiResults *obs.CounterVec // graphletd_multi_results_total{k}

	// Distributed execution (coordinator side; the worker endpoint's served
	// counter lives on the dist.Handler cmd/graphletd mounts).
	dist *dist.Metrics

	// Graph registry.
	graphs *obs.GaugeVec // {source}

	// Block-decode cache of .gcsr v2 graphs, aggregated across registered
	// graphs at scrape time (gauges, not counters: removing a graph drops
	// its contribution, so the aggregate may go down).
	blockHits      *obs.Gauge
	blockMisses    *obs.Gauge
	blockEvictions *obs.Gauge
	blockResBytes  *obs.Gauge
	blockResBlocks *obs.Gauge

	// Journal (shared handles with journal.Metrics; the journal increments
	// them internally, the manager adds marshal failures to errors).
	journal *journal.Metrics
}

// newServiceMetrics registers every service metric on reg (creating a
// private registry when nil — volatile test managers still derive their
// Stats from metric handles) and wires the graph registry's per-source
// gauge.
func newServiceMetrics(reg *obs.Registry, graphs *Registry) *serviceMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serviceMetrics{
		reg: reg,
		jobs: reg.CounterVec("graphletd_jobs_total",
			"Job lifecycle transitions: submitted on admission, then one terminal state.",
			"state"),
		jobsActive: reg.Gauge("graphletd_jobs_active",
			"Jobs currently holding a worker."),
		runs: reg.Counter("graphletd_runs_total",
			"Estimations actually executed (cache hits and coalesced submissions excluded)."),
		queueDepth: reg.GaugeVec("graphletd_queue_depth",
			"Jobs waiting for a worker, by priority class.", "class"),
		queueWait: reg.HistogramVec("graphletd_queue_wait_seconds",
			"Time from admission to dispatch, by priority class.",
			obs.LatencyBuckets, "class"),
		runDuration: reg.HistogramVec("graphletd_run_duration_seconds",
			"Time from dispatch to terminal state, by priority class.",
			obs.LatencyBuckets, "class"),
		cacheHits: reg.Counter("graphletd_cache_hits_total",
			"Submissions answered instantly from the result cache."),
		cacheMisses: reg.Counter("graphletd_cache_misses_total",
			"Submissions not answered by the result cache (coalesced or run)."),
		cacheEvictions: reg.Counter("graphletd_cache_evictions_total",
			"Results evicted by the LRU capacity bound."),
		coalesced: reg.Counter("graphletd_coalesced_total",
			"Submissions merged into an identical in-flight run."),
		cacheEntries: reg.Gauge("graphletd_cache_entries",
			"Results currently cached."),
		recovered: reg.Gauge("graphletd_recovered_jobs",
			"Jobs re-queued by journal replay at startup."),
		resumable: reg.Gauge("graphletd_resumable_jobs",
			"Recovered jobs that resumed mid-budget from a checkpoint snapshot."),
		warmed: reg.Gauge("graphletd_warmed_results",
			"Cache entries restored from the journal at startup."),
		walkSteps: reg.Counter("graphletd_walk_steps_total",
			"Walk transitions executed, accumulated at checkpoints."),
		walkCheckpoints: reg.Counter("graphletd_walk_checkpoints_total",
			"Ensemble-wide checkpoint states recorded across all runs; the walkers never stop for one."),
		walkResumed: reg.Counter("graphletd_walk_resumed_steps_total",
			"Walk steps preserved by restoring checkpoint snapshots instead of re-running."),
		multiRuns: reg.Counter("graphletd_multi_runs_total",
			"Shared-walk multi-size ensembles executed (one step budget covering several sizes)."),
		multiSteps: reg.CounterVec("graphletd_multi_walk_steps_total",
			"Sample windows credited per size by completed multi-size runs.", "k"),
		multiResults: reg.CounterVec("graphletd_multi_results_total",
			"Per-size results produced by completed multi-size runs (cache fan-out entries).", "k"),
		graphs: reg.GaugeVec("graphletd_graphs",
			"Registered graphs by source (dataset, file, gcsr, inline).", "source"),
		blockHits: reg.Gauge("graphletd_blockcache_hits",
			"Neighbor-row reads served from decoded-page caches, across registered v2 graphs."),
		blockMisses: reg.Gauge("graphletd_blockcache_misses",
			"Neighbor-row reads that loaded a page (verified its block and indexed about 8 KiB of encoded rows), across registered v2 graphs."),
		blockEvictions: reg.Gauge("graphletd_blockcache_evictions",
			"Decoded pages dropped by the clock hand, across registered v2 graphs."),
		blockResBytes: reg.Gauge("graphletd_blockcache_resident_bytes",
			"Bytes charged to cached pages: each page's row index plus the 1 KiB slabs of the rows read from it, across registered v2 graphs."),
		blockResBlocks: reg.Gauge("graphletd_blockcache_resident_blocks",
			"Decoded pages currently cached, across registered v2 graphs (the cache unit is a page cut from a file block; the name predates pages)."),
		dist: dist.NewMetrics(reg),
	}
	m.journal = &journal.Metrics{
		Appends: reg.Counter("graphletd_journal_appends_total",
			"Journal records written."),
		AppendSeconds: reg.Histogram("graphletd_journal_append_seconds",
			"Journal append latency in seconds, including rotation and fsync.",
			obs.MicroLatencyBuckets),
		Fsyncs: reg.Counter("graphletd_journal_fsyncs_total",
			"File syncs issued by the journal."),
		Compactions: reg.Counter("graphletd_journal_compactions_total",
			"Completed journal compactions."),
		Errors: reg.Counter("graphletd_journal_errors_total",
			"Failed journal operations (the daemon keeps serving from memory)."),
		Segments: reg.Gauge("graphletd_journal_segments",
			"Journal segment files currently on disk."),
	}
	graphs.instrument(m.graphs)
	return m
}

// installCollector registers the pull-style refreshers that keep gauges
// with no natural mutation hook current at scrape time.
func (m *Manager) installCollector() {
	m.met.reg.OnCollect(func() {
		m.mu.Lock()
		m.met.cacheEntries.Set(int64(m.cache.len()))
		m.mu.Unlock()
		st := m.reg.BlockCacheStats()
		m.met.blockHits.Set(int64(st.Hits))
		m.met.blockMisses.Set(int64(st.Misses))
		m.met.blockEvictions.Set(int64(st.Evictions))
		m.met.blockResBytes.Set(st.ResidentBytes)
		m.met.blockResBlocks.Set(st.ResidentBlocks)
	})
}

// waitReservoir is a bounded ring of recent queue-wait samples for one
// priority class; /v1/stats derives p50/p95/p99 from it with the shared
// stats.Quantile helper. Histograms answer the same question for PromQL;
// the reservoir answers it exactly for the JSON surface (and for tests)
// without bucket-interpolation error.
type waitReservoir struct {
	samples []float64
	next    int
}

const waitReservoirCap = 512

// add records one wait sample, overwriting the oldest once full.
func (r *waitReservoir) add(v float64) {
	if len(r.samples) < waitReservoirCap {
		r.samples = append(r.samples, v)
		return
	}
	r.samples[r.next] = v
	r.next = (r.next + 1) % waitReservoirCap
}

// QuantileSummary reports a latency distribution over recent samples.
type QuantileSummary struct {
	// Count is how many samples back the quantiles (bounded; under
	// sustained load it reflects the most recent window).
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// summarize computes the quantile summary of the reservoir.
func (r *waitReservoir) summarize() QuantileSummary {
	if len(r.samples) == 0 {
		return QuantileSummary{}
	}
	return QuantileSummary{
		Count: len(r.samples),
		P50:   stats.Quantile(r.samples, 0.50),
		P95:   stats.Quantile(r.samples, 0.95),
		P99:   stats.Quantile(r.samples, 0.99),
	}
}

// recordDispatchLocked observes a job's queue wait (admission to dispatch)
// in both the per-class histogram and the quantile reservoir. Caller holds
// Manager.mu.
func (m *Manager) recordDispatchLocked(j *job) {
	wait := j.started.Sub(j.created).Seconds()
	class := string(j.spec.Priority)
	m.met.queueWait.With(class).Observe(wait)
	r := m.waits[j.spec.Priority]
	if r == nil {
		r = &waitReservoir{}
		m.waits[j.spec.Priority] = r
	}
	r.add(wait)
}

// waitQuantilesLocked summarizes the per-class queue-wait reservoirs for
// /v1/stats. Caller holds Manager.mu.
func (m *Manager) waitQuantilesLocked() map[string]QuantileSummary {
	if len(m.waits) == 0 {
		return nil
	}
	out := make(map[string]QuantileSummary, len(m.waits))
	classes := make([]string, 0, len(m.waits))
	for p := range m.waits {
		classes = append(classes, string(p))
	}
	sort.Strings(classes)
	for _, c := range classes {
		out[c] = m.waits[Priority(c)].summarize()
	}
	return out
}
