// Command bench is the repository's standing benchmark: it materialises
// fixtures, starts real graphletd processes, drives six named workloads
// through the public HTTP API (cmd/graphlet-loadgen's client), verifies the
// results against in-process recomputation, and prints every metric by name
// with its unit. See bench/README.md for the metric glossary and
// BENCHMARK.json for the contract it is run under.
//
//	go run ./bench -seed 1                       # all six workloads
//	go run ./bench -workload walk_local -seed 1  # one workload; last line is JSON
//	go run ./bench -trace 1                      # traced run: spans + per-layer probes
//	go run ./bench -aa -runs 10                  # A/A self-check against the bounds
//
// Run it from the repository root: it builds ./cmd/graphletd there and keeps
// every file it writes under bench/out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is what one workload run carries around.
type env struct {
	options
	daemonBin string
	procs     *procs
	// scale multiplies every job count of the issue's sizing (which fills
	// ~fullSeconds per workload on the 2-core reference box).
	scale float64
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the contract's JSON result as the last line (default: all six, one child process each)")
		seed     = flag.Int64("seed", 1, "workload seed: drives job seeds and arrival times (fixtures have fixed seeds)")
		seconds  = flag.Int("seconds", runSeconds, "target length of the measured phase; job counts are the issue's counts × seconds/20")
		trace    = flag.Int("trace", 0, "1 = traced run: quarter-length job lists with spans, /metrics deltas, in-process probes and variant passes; prints per-layer metrics")
		aa       = flag.Bool("aa", false, "A/A self-check: two sets of runs of this binary, compared against the end-to-end bounds")
		runs     = flag.Int("runs", 1, "with -aa: runs per set and workload, each with its own seed")
		emit     = flag.Bool("emit-contract", false, "print BENCHMARK.json generated from the metric lists and exit")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for the daemon binary, scratch data, result and trace files")
	)
	flag.Parse()
	if *emit {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildContract()); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d out of range 1..60", *seconds))
	}

	p := newProcs()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The deferred cleanup covers returns; this goroutine covers signals that
	// arrive while the main goroutine is blocked in a child or a job.
	go func() {
		<-ctx.Done()
		p.cleanup()
	}()
	code := dispatch(ctx, p, options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		aa: *aa, runs: *runs, outDir: *outDir,
	})
	p.cleanup()
	if ctx.Err() != nil && code == 0 {
		code = 130
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	aa       bool
	runs     int
	outDir   string
}

// dispatch picks the mode: A/A, the whole suite, or one workload.
func dispatch(ctx context.Context, p *procs, o options) int {
	switch {
	case o.aa:
		return runAA(ctx, p, o)
	case o.workload == "":
		return runSuite(ctx, p, o)
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	e := &env{options: o, procs: p, scale: float64(o.seconds) / fullSeconds}
	if o.workload != "lib_replicas" {
		bin, err := buildDaemon(ctx, o.outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		e.daemonBin = bin
	}
	res, err := runWorkload(ctx, e, o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.Meta = metaBlock(e)
	if err := writeJSON(filepath.Join(o.outDir, "result-"+o.workload+".json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	report(res)
	if !res.correct() {
		return 1
	}
	return 0
}

// result is everything one workload run produced.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Verified  int      `json:"oracle_verified"`
	Wrong     int      `json:"oracle_wrong"`
	Phases    []phase  `json:"phases"`
	EndToEnd  values   `json:"end_to_end"`
	PerLayer  values   `json:"per_layer"`
	Notes     []string `json:"notes,omitempty"`
	Meta      meta     `json:"meta"`
}

// phase is the sent/succeeded/failed tally of one part of a run.
type phase struct {
	Name      string `json:"name"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Wrong == 0 && r.Attempted > 0 }

// report prints the human table and, last, the contract's JSON line.
func report(r *result) {
	out := os.Stdout
	m := r.Meta
	fmt.Fprintf(out, "workload %s (seed %d, scale %.3g, traced %v)\n", r.Workload, m.Seed, m.Scale, r.Traced)
	fmt.Fprintf(out, "  meta: commit %s, nproc %d, GOMAXPROCS %d, %s, cpu %q\n", m.Commit, m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel)
	for _, ph := range r.Phases {
		fmt.Fprintf(out, "  phase %-22s sent %6d  succeeded %6d  failed %6d\n", ph.Name, ph.Sent, ph.Succeeded, ph.Failed)
	}
	fmt.Fprintf(out, "  verified: %d results checked (recomputed in-process bit for bit; lib_replicas: method means against exact truth), %d wrong\n", r.Verified, r.Wrong)
	fmt.Fprintf(out, "  failed_share %.6g (%d of %d)\n", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed}
	if r.Traced {
		printTable(out, "per-layer metrics (traced run; end-to-end numbers are never taken from it)", perLayer, r.PerLayer, false)
		line.Metrics = contractMetrics(perLayer, r.PerLayer, 0)
	} else {
		printTable(out, "end-to-end metrics", endToEnd, r.EndToEnd, true)
		printTable(out, "per-layer metrics available without tracing", perLayer, r.PerLayer, false)
		line.Metrics = contractMetrics(endToEnd, r.EndToEnd, notApplicable)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(b))
}

// meta records where and how a result was measured.
type meta struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Time       string  `json:"time"`
}

func metaBlock(e *env) meta {
	m := meta{
		Commit: "unknown", Seed: e.seed, Seconds: e.seconds, Scale: e.scale,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	// Best effort: the driver's checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
