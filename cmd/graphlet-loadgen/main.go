// Command graphlet-loadgen drives a live graphletd (or the coordinator of a
// fleet) with a seeded list of estimation jobs over the public HTTP API, in
// a closed or an open loop, and reports what a caller would see: jobs sent,
// succeeded and failed, submit→terminal latency (median and the highest
// percentile the sample supports) and steps per second.
//
//	graphlet-loadgen -addr http://127.0.0.1:9090 -graph social -mix m6 -jobs 96 -steps 100000
//	graphlet-loadgen -addr http://127.0.0.1:9090 -graph social -mix short -jobs 8000 -mode open -rate 400
//	graphlet-loadgen -addr http://127.0.0.1:9090 -graph social -mix k4d2css -jobs 600 -steps 20000 -walkers 4 -nodes 2 -clients 1
//
// Closed loop (-mode closed): -clients submitters each send their next job
// as soon as the previous one reached a terminal state. Open loop (-mode
// open): jobs arrive on a Poisson schedule of -rate per second whatever the
// daemon does, at most -clients in flight, and each is timed from the
// instant it was due — so a stall is charged to every arrival it delays.
// Completion is observed on GET /v1/jobs/{id}/events. Any failed, refused,
// canceled or timed-out (60 s) job makes the exit status non-zero.
//
// The job list is a pure function of the flags: equal -seed, equal list.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"repro/bench/loadgen"
	"repro/internal/service"
	"repro/internal/stats"
)

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:9090", "graphletd base URL")
		graph   = flag.String("graph", "", "registered graph name to run against (required)")
		mix     = flag.String("mix", "m6", "job mix: m6 (six specs round-robin: k3 d1 css nb, k4 d2 css, k5 d2 css, k4 d3, k5 d3 nb, sizes 3,4,5 d2 css), short (500-step single-walker jobs, half on 16 hot seeds), k4d2css (one spec)")
		jobs    = flag.Int("jobs", 96, "number of jobs")
		steps   = flag.Int("steps", 0, "step budget per job (0 = the mix's own: 500 for short, 100000 otherwise)")
		walkers = flag.Int("walkers", 2, "walkers per job (mix short always uses 1)")
		nodes   = flag.Int("nodes", 0, "fleet fan-out per job (0 = local)")
		mode    = flag.String("mode", "closed", "closed or open")
		clients = flag.Int("clients", 2, "closed loop: concurrent submitters; open loop: cap on jobs in flight")
		rate    = flag.Float64("rate", 400, "open loop: Poisson arrival rate, jobs per second")
		seed    = flag.Int64("seed", 1, "seed for job seeds and arrival times")
	)
	flag.Parse()
	if *graph == "" || *jobs <= 0 || *clients <= 0 || (*mode != "closed" && *mode != "open") {
		flag.Usage()
		os.Exit(2)
	}
	if *steps == 0 {
		*steps = 100_000
		if *mix == "short" {
			*steps = 500
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	var list []loadgen.Job
	switch *mix {
	case "m6":
		s := *steps
		list = loadgen.M6Jobs(rng, *graph, *jobs, [6]int{s, s, s, s, s, s}, *walkers)
	case "short":
		list = loadgen.ShortJobs(rng, *graph, *jobs, *steps, *rate)
	case "k4d2css":
		list = loadgen.UniformJobs(rng, *jobs, service.Spec{Graph: *graph, K: 4, D: 2, CSS: true, Steps: *steps, Walkers: *walkers})
	default:
		fmt.Fprintf(os.Stderr, "graphlet-loadgen: unknown mix %q\n", *mix)
		os.Exit(2)
	}
	open := *mode == "open"
	if open && *mix != "short" {
		for i, due := range loadgen.PoissonSchedule(rng, len(list), *rate) {
			list[i].Due = due
		}
	}
	for i := range list {
		list[i].Spec.Nodes = *nodes
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := loadgen.NewClient(*addr, *clients)
	outcomes := loadgen.Run(ctx, client, list, loadgen.Options{Conns: *clients, Open: open})
	sum := loadgen.Summarize(outcomes)

	fmt.Printf("jobs: sent %d, succeeded %d, failed %d (cached %d, coalesced %d)\n",
		sum.Sent, sum.Succeeded, sum.Failed, sum.Cached, sum.Coalesced)
	for i := range outcomes {
		if err := outcomes[i].Err; err != nil {
			fmt.Printf("first failure: job %d: %v\n", i, err)
			break
		}
	}
	if sum.Succeeded > 0 {
		tail, pct := loadgen.Tail(sum.LatencyMs)
		fmt.Printf("job_latency_p50_ms  %.4f\n", stats.Quantile(sum.LatencyMs, 0.5))
		if pct > 50 { // below 100 samples no tail percentile is supported
			fmt.Printf("job_latency_p%d_ms  %.4f   (highest percentile with >= %d of %d samples beyond it)\n",
				pct, tail, loadgen.TailMinBeyond, len(sum.LatencyMs))
		}
		fmt.Printf("submit_ms_p50       %.4f\n", stats.Quantile(sum.SubmitMs, 0.5))
		if len(sum.RunMs) > 0 {
			fmt.Printf("queue_wait_ms_p50   %.4f\n", stats.Quantile(sum.QueueWaitMs, 0.5))
			fmt.Printf("run_ms_p50          %.4f\n", stats.Quantile(sum.RunMs, 0.5))
		}
		if open {
			fmt.Printf("gen_late_ms_p99     %.4f   (how far behind schedule submissions started)\n", stats.Quantile(sum.LateMs, 0.99))
		}
		fmt.Printf("steps_per_s         %.1f   (%d steps in %.3f s)\n", float64(sum.Steps)/sum.Wall.Seconds(), sum.Steps, sum.Wall.Seconds())
	}
	if sum.Failed > 0 || ctx.Err() != nil {
		os.Exit(1)
	}
}
