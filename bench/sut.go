package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/loadgen"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stats"
)

// The daemon workloads' fixture: the 1M-edge Barabási–Albert graph the
// repo's layer benchmarks use (bench_ba_test.go), so per-step numbers here
// and there refer to one graph. Fixture seeds are fixed; only job seeds and
// arrival times follow -seed.
const (
	baNodes  = 200_000
	baAttach = 5
	baSeed   = 1337
	baName   = "ba"

	// lib_replicas runs on Holme–Kim, small enough for exact 4-node truth and
	// clustered enough that the reference graphlets are not vanishingly rare.
	hkNodes    = 50_000
	hkAttach   = 5
	hkTriangle = 0.5
	hkSeed     = 1337
)

// setupRepeats is how many times a run sets its system up; setup_s is the
// median, which a single cold page-cache miss cannot move.
const setupRepeats = 3

// sut is one set-up system under test: the fixture on disk, the daemons
// serving it, and a client pointed at the daemon that takes submissions.
type sut struct {
	dir     string
	g       *graph.Graph // the fixture in memory, for the oracle
	path    string       // the .gcsr file the daemons serve
	daemons []*daemon    // daemons[0] takes submissions
	args    [][]string   // extra flags each daemon was started with
	client  *loadgen.Client
	genMs   float64
	e       *env
	// daemonCPUs, when set, confines the daemons; clientCPUs is then where the
	// client belongs (sutSpec.split).
	daemonCPUs, clientCPUs *cpuSet
}

// sutSpec describes how a daemon workload sets its system up.
type sutSpec struct {
	version int // .gcsr version of the fixture file
	// flags returns the extra graphletd flags shared by every daemon of the
	// workload (dir is the run's scratch directory).
	flags func(dir string) []string
	// workers > 0 makes a fleet: that many -worker daemons plus a coordinator
	// with -peers.
	workers int
	conns   int
	// split gives the daemon the last CPU and the client the others. It is
	// for a workload whose client works about as hard as its daemon, in
	// lock-step with it: left alone, the kernel stacks the two on one CPU
	// (wake-affine) in most runs and spreads them in others — reliably so when
	// something else kept the box busy just before — and the daemon's CPU time
	// for the same job list is 20–40 % higher when spread.
	split bool
}

// setUp generates and packs the fixture, starts the daemons and waits for
// all of them to report ready. The returned duration covers all of that.
func (e *env) setUp(ctx context.Context, spec sutSpec) (*sut, time.Duration, error) {
	dir, err := e.procs.tempDir(e.outDir, "run-*")
	if err != nil {
		return nil, 0, err
	}
	s := &sut{dir: dir, e: e}
	if spec.split {
		s.daemonCPUs, s.clientCPUs = splitCPUs()
	}
	fail := func(err error) (*sut, time.Duration, error) {
		s.close()
		return nil, 0, err
	}
	start := time.Now()
	s.g = gen.BarabasiAlbert(baNodes, baAttach, baSeed)
	s.genMs = ms(time.Since(start))
	s.path = filepath.Join(dir, "ba.gcsr")
	if err := graph.SaveOpts(s.path, s.g, graph.SaveOptions{Version: spec.version}); err != nil {
		return fail(err)
	}
	common := []string{"-graph", baName + "=" + s.path}
	if spec.flags != nil {
		common = append(common, spec.flags(dir)...)
	}
	var peers []string
	for i := 0; i < spec.workers; i++ {
		args := append(append([]string(nil), common...), "-worker")
		if err := s.start(i+1, args); err != nil {
			return fail(err)
		}
		peers = append(peers, s.daemons[i].base)
	}
	args := append([]string(nil), common...)
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	if err := s.start(0, args); err != nil {
		return fail(err)
	}
	// The coordinator takes submissions: move it to the front.
	last := len(s.daemons) - 1
	s.daemons[0], s.daemons[last] = s.daemons[last], s.daemons[0]
	s.args[0], s.args[last] = s.args[last], s.args[0]
	for _, d := range s.daemons {
		if err := d.waitReady(ctx); err != nil {
			return fail(err)
		}
	}
	took := time.Since(start)
	s.client = loadgen.NewClient(s.daemons[0].base, spec.conns)
	return s, took, nil
}

// start launches one more daemon of the system with the given extra flags.
func (s *sut) start(index int, args []string) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	d, err := s.e.startDaemon(addr, filepath.Join(s.dir, fmt.Sprintf("graphletd-%d.log", index)), s.daemonCPUs, args...)
	if err != nil {
		return err
	}
	s.daemons = append(s.daemons, d)
	s.args = append(s.args, args)
	return nil
}

// restart replaces the (already killed) submission daemon with a fresh
// process on the same flags and returns how long it took from exec to
// /readyz 200.
func (s *sut) restart(ctx context.Context) (time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := s.e.startDaemon(addr, filepath.Join(s.dir, "graphletd-0.log"), s.daemonCPUs, s.args[0]...)
	if err != nil {
		return 0, err
	}
	s.daemons[0] = d
	if err := d.waitReady(ctx); err != nil {
		return 0, err
	}
	took := time.Since(start)
	s.client = loadgen.NewClient(d.base, 2)
	return took, nil
}

// stop kills every daemon and returns their summed CPU and peak RSS.
func (s *sut) stop() usage {
	var u usage
	for _, d := range s.daemons {
		u = u.add(d.kill())
	}
	return u
}

// close stops whatever still runs and removes the scratch directory.
func (s *sut) close() {
	s.stop()
	s.e.procs.removeDir(s.dir)
}

// logTail returns the last lines of the submission daemon's log, for error
// messages.
func (s *sut) logTail() string {
	raw, err := os.ReadFile(filepath.Join(s.dir, "graphletd-0.log"))
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// setUpMedian sets the system up setupRepeats times, tearing all but the
// last one down again, and returns the last system with the median set-up
// time in seconds.
func (e *env) setUpMedian(ctx context.Context, spec sutSpec) (*sut, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, took, err := e.setUp(ctx, spec)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, took.Seconds())
		if i == setupRepeats-1 {
			return s, stats.Quantile(times, 0.5), nil
		}
		s.close()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// truth is lib_replicas' fixture: the Holme–Kim graph and its exact 3- and
// 4-node concentrations.
type truth struct {
	g       *graph.Graph
	conc    map[int][]float64 // by k
	genMs   float64
	exactMs float64
}

func buildTruth() truth {
	start := time.Now()
	g := gen.HolmeKim(hkNodes, hkAttach, hkTriangle, hkSeed)
	genMs := ms(time.Since(start))
	start = time.Now()
	conc := map[int][]float64{
		3: exact.Concentrations(exact.ThreeNodeCounts(g)),
		4: exact.Concentrations(exact.FourNodeCounts(g)),
	}
	return truth{g: g, conc: conc, genMs: genMs, exactMs: ms(time.Since(start))}
}
