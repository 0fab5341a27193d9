package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench/loadgen"
	"repro/internal/service"
	"repro/internal/stats"
)

// tracedShare is the length of a traced pass relative to the untraced list.
const tracedShare = 0.25

// tightCacheMB is v2_tight's -block-cache-mb: 8 MiB against ≈8.8 MB of
// decoded rows, so a few of the fixture's blocks are always out.
const tightCacheMB = 8

// daemonWL is one daemon workload: how its system is set up, what job list
// it runs and how, and what it adds around the common skeleton.
type daemonWL struct {
	sut sutSpec
	// jobs builds the job list at the given share of the workload's
	// (already -seconds-scaled) length.
	jobs func(rng *rand.Rand, e *env, share float64) []loadgen.Job
	open bool
	// live runs after the job list with the daemons still up.
	live func(ctx context.Context, e *env, s *sut, r *run) error
	// post runs after the measured daemons were stopped and accounted.
	post func(ctx context.Context, e *env, s *sut, r *run) error
}

// run is the state a daemon workload accumulates.
type run struct {
	res      *result
	rng      *rand.Rand
	outcomes []loadgen.Outcome // the pass the layer metrics describe
	sum      loadgen.Summary
	delta    loadgen.Samples // /metrics change across that pass
}

// m6Steps gives every M6 slot the same step budget.
func m6Steps(n int) [6]int { return [6]int{n, n, n, n, n, n} }

var walkLocalSteps = [6]int{400_000, 200_000, 100_000, 100_000, 100_000, 100_000}

func daemonWorkloads() map[string]daemonWL {
	volatile := sutSpec{version: 1, conns: 2}
	return map[string]daemonWL{
		"walk_local": {
			sut: volatile,
			jobs: func(rng *rand.Rand, e *env, share float64) []loadgen.Job {
				return loadgen.M6Jobs(rng, baName, e.count(96, share), walkLocalSteps, 2)
			},
			post: v2WarmVariant,
		},
		"api_short": {
			sut: sutSpec{version: 1, conns: 2, split: true}, open: true,
			jobs: func(rng *rand.Rand, e *env, share float64) []loadgen.Job {
				return loadgen.ShortJobs(rng, baName, e.count(8000, share), 500, 400)
			},
		},
		"durable_ckpt": {
			sut: sutSpec{version: 1, conns: 2, flags: func(dir string) []string {
				// No -fsync: the flush policy is the page cache. fsync totals on
				// the sandbox disk swung 2x run to run; it is probed, not gated.
				return []string{"-data-dir", filepath.Join(dir, "data"), "-snapshot-every", "500"}
			}},
			jobs: func(rng *rand.Rand, e *env, share float64) []loadgen.Job {
				return loadgen.M6Jobs(rng, baName, e.count(144, share), m6Steps(50_000), 2)
			},
			live: journalFootprint,
			post: killAndResume,
		},
		"v2_tight": {
			sut: sutSpec{version: 2, conns: 2, flags: func(string) []string {
				return []string{"-block-cache-mb", strconv.Itoa(tightCacheMB)}
			}},
			jobs: func(rng *rand.Rand, e *env, share float64) []loadgen.Job {
				return loadgen.M6Jobs(rng, baName, e.count(24, share), m6Steps(100_000), 2)
			},
			live: blockCacheSizes,
		},
		"fleet_sync": {
			sut: sutSpec{version: 1, conns: 1, workers: 2, flags: func(string) []string {
				return []string{"-snapshot-every", "250"}
			}},
			jobs: func(rng *rand.Rand, e *env, share float64) []loadgen.Job {
				return loadgen.UniformJobs(rng, e.count(600, share), fleetSpec(2))
			},
			live: fleetLocalVariant,
		},
	}
}

// fleetSpec is fleet_sync's job; nodes 0 runs the same job on the
// coordinator alone.
func fleetSpec(nodes int) service.Spec {
	return service.Spec{Graph: baName, K: 4, D: 2, CSS: true, Steps: 20_000, Walkers: 4, Nodes: nodes}
}

// count scales one of the issue's job counts by -seconds and share; a list
// never shrinks below one round of M6.
func (e *env) count(full int, share float64) int {
	return max(int(float64(full)*e.scale*share+0.5), 6)
}

func runWorkload(ctx context.Context, e *env, name string) (*result, error) {
	if name == "lib_replicas" {
		return libReplicas(ctx, e)
	}
	return daemonWorkload(ctx, e, name, daemonWorkloads()[name])
}

// pass drives one job list and tallies it as a phase of the result.
func (r *run) pass(ctx context.Context, c *loadgen.Client, name string, jobs []loadgen.Job, o loadgen.Options) ([]loadgen.Outcome, loadgen.Summary) {
	outcomes := loadgen.Run(ctx, c, jobs, o)
	sum := loadgen.Summarize(outcomes)
	r.res.Phases = append(r.res.Phases, phase{Name: name, Sent: sum.Sent, Succeeded: sum.Succeeded, Failed: sum.Failed})
	r.res.Attempted += sum.Sent
	r.res.Failed += sum.Failed
	for i := range outcomes {
		if err := outcomes[i].Err; err != nil {
			r.res.Notes = append(r.res.Notes, fmt.Sprintf("%s job %d: %v", name, i, err))
			break // one example is enough; the tally has the count
		}
	}
	return outcomes, sum
}

// check runs the oracle over a pass and folds mismatches into the result:
// a wrong answer is a failed job.
func (r *run) check(s *sut, outcomes []loadgen.Outcome) {
	checked, wrong := verify(s.g, outcomes)
	r.res.Verified += checked
	r.res.Wrong += len(wrong)
	r.res.Failed += len(wrong)
	for _, err := range wrong {
		r.res.Notes = append(r.res.Notes, err.Error())
	}
}

func daemonWorkload(ctx context.Context, e *env, name string, wl daemonWL) (*result, error) {
	s, setupS, err := e.setUpMedian(ctx, wl.sut)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := &run{
		res: &result{Workload: name, Traced: e.trace, EndToEnd: values{}, PerLayer: values{}},
		rng: rand.New(rand.NewSource(e.seed)),
	}
	if s.clientCPUs != nil {
		if err := pinSelf(*s.clientCPUs); err != nil {
			return nil, err
		}
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("daemon confined to CPUs %v, client to CPUs %v", s.daemonCPUs.cpus(), s.clientCPUs.cpus()))
	}
	opts := loadgen.Options{Conns: wl.sut.conns, Open: wl.open}

	// The untraced twin of the traced pass — same daemon, same list, fresh
	// seeds — runs once before and once after it, so that the daemon warming
	// up and the box drifting fall on both sides of the comparison. (Equal
	// lengths matter: a closed loop's first and last jobs meet no queue, so a
	// shorter list has a lower median.) The p50 gap between the twins and the
	// traced pass is what tracing costs.
	var twinMs []float64
	twin := func(name string) {
		_, sum := r.pass(ctx, s.client, name, wl.jobs(r.rng, e, tracedShare), loadgen.Options{Conns: wl.sut.conns, Open: wl.open})
		twinMs = append(twinMs, sum.LatencyMs...)
	}
	share, passName := 1.0, "measured"
	if e.trace {
		twin("untraced-twin-a")
		opts.TracePrefix = fmt.Sprintf("%s-%d", name, e.seed)
		share, passName = tracedShare, "traced"
	}
	jobs := wl.jobs(r.rng, e, share)
	before, err := s.client.Scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, s.logTail())
	}
	r.outcomes, r.sum = r.pass(ctx, s.client, passName, jobs, opts)
	after, err := settledScrape(ctx, s.client)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, s.logTail())
	}
	r.delta = loadgen.Delta(before, after)
	if e.trace {
		twin("untraced-twin-b")
	}
	if r.sum.Succeeded == 0 {
		return nil, fmt.Errorf("%s: no job succeeded (%d sent)\n%s", name, r.sum.Sent, s.logTail())
	}
	if wl.live != nil {
		if err := wl.live(ctx, e, s, r); err != nil {
			return nil, err
		}
	}
	cost := s.stop()

	ee := r.res.EndToEnd
	ee["setup_s"] = setupS
	ee["job_latency_p50_ms"] = stats.Quantile(r.sum.LatencyMs, 0.5)
	ee["steps_per_s"] = float64(r.sum.Steps) / r.sum.Wall.Seconds()
	ee["sut_cpu_s"] = cost.cpuSeconds
	ee["peak_rss_mb"] = cost.maxRSSMB
	r.res.PerLayer.merge(clientAndServiceLayers(r.sum, r.delta))
	r.res.PerLayer["gen.fixture_ms"] = s.genMs

	if wl.post != nil {
		if err := wl.post(ctx, e, s, r); err != nil {
			return nil, err
		}
	}
	r.check(s, r.outcomes)
	if e.trace {
		untraced := stats.Quantile(twinMs, 0.5)
		r.res.PerLayer["trace.overhead_share"] = (ee["job_latency_p50_ms"] - untraced) / untraced
		if err := r.traceLayers(e, s, name); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return r.res, nil
}

// settledScrape scrapes /metrics until the journal append counter stops
// moving: journal writes happen on a writer goroutine behind the API, so the
// last job's records may land a moment after its terminal event.
func settledScrape(ctx context.Context, c *loadgen.Client) (loadgen.Samples, error) {
	const series = "graphletd_journal_appends_total"
	prev, err := c.Scrape(ctx)
	if err != nil {
		return nil, err
	}
	for stable := 0; stable < 2; {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		cur, err := c.Scrape(ctx)
		if err != nil {
			return nil, err
		}
		if cur[series] == prev[series] {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	return prev, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clientAndServiceLayers derives the client and service layer metrics from
// the client's clock (C), the JobView timestamps (V) and the /metrics delta
// across the pass (M).
func clientAndServiceLayers(sum loadgen.Summary, d loadgen.Samples) values {
	v := values{}
	v["client.submit_ms_p50"] = stats.Quantile(sum.SubmitMs, 0.5)
	v["client.jobs"] = float64(len(sum.LatencyMs))
	tail, pct := loadgen.Tail(sum.LatencyMs)
	v["client.job_latency_tail_ms"], v["client.job_latency_tail_pct"] = tail, float64(pct)
	v["client.gen_late_ms_p99"] = stats.Quantile(sum.LateMs, 0.99)
	if len(sum.RunMs) > 0 {
		v["client.notify_ms_p50"] = stats.Quantile(sum.NotifyMs, 0.5)
		v["service.queue_wait_ms_p50"] = stats.Quantile(sum.QueueWaitMs, 0.5)
		v["service.run_ms_p50"] = stats.Quantile(sum.RunMs, 0.5)
	}
	submitted := d[`graphletd_jobs_total{state="submitted"}`]
	v["service.cache_hit_share"] = ratio(d["graphletd_cache_hits_total"], submitted)
	v["service.coalesced_share"] = ratio(d["graphletd_coalesced_total"], submitted)
	v["service.runs"] = d["graphletd_runs_total"]
	// A layer the workload never enters stays out of its table.
	if reads := d["graphletd_blockcache_misses"] + d["graphletd_blockcache_hits"]; reads > 0 {
		v["graph.blockcache_miss_share"] = d["graphletd_blockcache_misses"] / reads
		v["graph.blockcache_evictions"] = d["graphletd_blockcache_evictions"]
	}
	if appends := d["graphletd_journal_appends_total"]; appends > 0 {
		v["journal.appends_per_job"] = ratio(appends, float64(sum.Succeeded))
		v["journal.append_us_mean"] = 1e6 * ratio(d["graphletd_journal_append_seconds_sum"], d["graphletd_journal_append_seconds_count"])
	}
	if dispatched := d[`graphletd_partitions_total{state="dispatched"}`]; dispatched > 0 {
		v["dist.partitions_per_job"] = ratio(dispatched, d["graphletd_runs_total"])
		v["dist.retried_share"] = d[`graphletd_partitions_total{state="retried"}`] / dispatched
		v["dist.dispatch_ms_mean"] = 1e3 * ratio(d["graphletd_partition_dispatch_seconds_sum"], d["graphletd_partition_dispatch_seconds_count"])
		v["dist.stream_ms_mean"] = 1e3 * ratio(d["graphletd_partition_stream_seconds_sum"], d["graphletd_partition_stream_seconds_count"])
	}
	return v
}

// journalFootprint (durable_ckpt, daemon up, journal drained) measures the
// bytes the job list left in the journal directory.
func journalFootprint(_ context.Context, _ *env, s *sut, r *run) error {
	var total int64
	entries, err := os.ReadDir(filepath.Join(s.dir, "data", "journal"))
	if err != nil {
		return err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return err
		}
		total += info.Size()
	}
	r.res.EndToEnd["journal_bytes_per_job"] = float64(total) / float64(r.sum.Succeeded)
	return nil
}

// blockCacheSizes (v2_tight) prints the cache budget next to the decoded
// size of all rows, so the "working set larger than the cache" premise is
// visible in every run.
func blockCacheSizes(ctx context.Context, e *env, s *sut, r *run) error {
	m, err := s.client.Scrape(ctx)
	if err != nil {
		return err
	}
	decoded := int64(s.g.NumNodes()+1)*4 + 2*s.g.NumEdges()*4
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(
		"block cache: budget %d bytes, resident %d bytes in %d blocks; all rows decoded ≈ %d bytes",
		8<<20, int64(m["graphletd_blockcache_resident_bytes"]), int64(m["graphletd_blockcache_resident_blocks"]), decoded))
	return nil
}

// fleetLocalVariant (fleet_sync, traced) reruns the traced list's shape
// with nodes 0 on the coordinator alone; the p50 gap over the local p50 is
// what distribution costs per job on this box.
func fleetLocalVariant(ctx context.Context, e *env, s *sut, r *run) error {
	if !e.trace {
		return nil
	}
	jobs := loadgen.UniformJobs(r.rng, e.count(600, tracedShare), fleetSpec(0))
	_, sum := r.pass(ctx, s.client, "variant-local", jobs, loadgen.Options{Conns: 1})
	local := stats.Quantile(sum.LatencyMs, 0.5)
	fleet := stats.Quantile(r.sum.LatencyMs, 0.5)
	r.res.PerLayer["dist.overhead_share"] = (fleet - local) / local
	return nil
}

// v2WarmVariant (walk_local, traced) runs the traced list on a .gcsr v2
// daemon whose 64 MiB cache holds every decoded block: the end-to-end price
// of the block store when nothing is evicted.
func v2WarmVariant(ctx context.Context, e *env, _ *sut, r *run) error {
	if !e.trace {
		return nil
	}
	s, _, err := e.setUp(ctx, sutSpec{version: 2, conns: 2, flags: func(string) []string {
		return []string{"-block-cache-mb", "64"}
	}})
	if err != nil {
		return err
	}
	defer s.close()
	jobs := loadgen.M6Jobs(r.rng, baName, e.count(96, tracedShare), walkLocalSteps, 2)
	_, sum := r.pass(ctx, s.client, "variant-v2-warm", jobs, loadgen.Options{Conns: 2})
	r.res.PerLayer["graph.v2_warm_steps_per_s"] = float64(sum.Steps) / sum.Wall.Seconds()
	return nil
}

// killAndResume (durable_ckpt, after the measured daemon was stopped) is the
// crash drill: a background job is SIGKILLed past half its budget, the
// daemon is restarted five times on the same data directory — killed again
// each time as soon as the resumed job reports progress — and the result of
// the run that finally completes must equal an uninterrupted in-process run.
func killAndResume(ctx context.Context, e *env, s *sut, r *run) error {
	const restarts = 5
	var recoveryMs []float64
	took, err := s.restart(ctx) // replays the measured phase's journal
	if err != nil {
		return fmt.Errorf("restart after the job list: %w\n%s", err, s.logTail())
	}
	recoveryMs = append(recoveryMs, ms(took))
	spec := service.Spec{
		Graph: baName, K: 4, D: 2, CSS: true, Walkers: 2, Priority: service.PriorityBackground,
		Steps: max(int(2_000_000*e.scale), 100_000), Seed: r.rng.Int63(),
	}
	ph := phase{Name: "kill-and-resume", Sent: 1}
	r.res.Attempted++
	fail := func(err error) error {
		ph.Failed = 1
		r.res.Failed++
		r.res.Phases = append(r.res.Phases, ph)
		r.res.Notes = append(r.res.Notes, "kill-and-resume: "+err.Error())
		return nil
	}
	view, err := s.client.Submit(ctx, spec, "")
	if err != nil {
		return fail(err)
	}
	// watchUntil follows the job until its progress reaches atLeast steps.
	watchUntil := func(atLeast int) (service.JobView, error) {
		var last service.JobView
		wctx, cancel := context.WithTimeout(ctx, loadgen.JobTimeout)
		defer cancel()
		err := s.client.Watch(wctx, view.ID, func(v service.JobView) bool {
			last = v
			return v.Progress.Steps < atLeast && !loadgen.Terminal(v.State)
		})
		return last, err
	}
	seen, err := watchUntil(spec.Steps/2 + 1)
	if err != nil {
		return fail(err)
	}
	preKill := seen.Progress.Steps
	var final service.JobView
	resumed := false
	for i := 1; i <= restarts; i++ {
		s.daemons[0].kill()
		took, err := s.restart(ctx)
		if err != nil {
			return fmt.Errorf("restart %d: %w\n%s", i, err, s.logTail())
		}
		recoveryMs = append(recoveryMs, ms(took))
		target := preKill + 1 // any progress beyond the restored checkpoint
		if i == restarts {
			target = math.MaxInt // only the terminal event ends the last watch
		}
		seen, err = watchUntil(target)
		if err != nil {
			return fail(err)
		}
		if i == 1 {
			r.res.PerLayer["journal.resumed_share"] = ratio(float64(seen.Progress.ResumedSteps), float64(preKill))
		}
		resumed = resumed || seen.Progress.ResumedSteps > 0
		preKill = seen.Progress.Steps
		final = seen
	}
	s.stop()
	r.res.PerLayer["journal.recovery_ms_p50"] = stats.Quantile(recoveryMs, 0.5)
	if final.State != service.StateDone {
		return fail(fmt.Errorf("resumed job ended %s: %s", final.State, final.Error))
	}
	if !resumed {
		return fail(fmt.Errorf("job restarted from step 0 after every kill instead of resuming"))
	}
	r.res.Verified++
	if err := checkView(s.g, &final); err != nil {
		r.res.Wrong++
		return fail(err)
	}
	ph.Succeeded = 1
	r.res.Phases = append(r.res.Phases, ph)
	return nil
}
