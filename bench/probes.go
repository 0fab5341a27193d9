package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/journal"
	"repro/internal/walk"
)

// The probes time calls into each package's exported functions, in this
// process, on the BA fixture (source "P" in the README's tables). They give
// a traced run its per-layer unit costs: what one step, one barrier, one
// row read, one journal append costs with nothing else in the way. A probe
// that cannot run reports nothing rather than a guess.

// perOp times fn over n calls and returns the mean cost of one, in ns.
func perOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// perOpErr is perOp for a call that can fail; ok is false if any call did.
func perOpErr(n int, fn func() error) (ns float64, ok bool) {
	ok = true
	ns = perOp(n, func() {
		if err := fn(); err != nil {
			ok = false
		}
	})
	return ns, ok
}

// walkSpec is the (d, nb) walk behind a method: what classify_ns subtracts.
type walkSpec struct {
	d  int
	nb bool
}

func (w walkSpec) name() string {
	n := "d" + string(rune('0'+w.d))
	if w.nb {
		n += "nb"
	}
	return n
}

// runProbes runs every in-process probe on g, the BA fixture, and returns
// the metrics it got.
func runProbes(e *env, g *graph.Graph) values {
	v := values{}
	dir, err := e.procs.tempDir(e.outDir, "probe-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: probes skipped:", err)
		return v
	}
	defer e.procs.removeDir(dir)
	walkNs := probeWalk(v, g)
	probeCore(v, g, walkNs)
	probeAccess(v, g)
	probeGraph(v, g, dir)
	probeJournal(v, dir)
	probeDist(v, g)
	probeService(v)
	return v
}

// probeWalk times a warm Walk.Step per walk order, with and without the
// non-backtracking rule, and the first 10k steps of a fresh d=3 Space (its
// state cache still empty).
func probeWalk(v values, g *graph.Graph) map[string]float64 {
	client := access.NewGraphClient(g)
	out := make(map[string]float64)
	for _, ws := range []walkSpec{{1, false}, {2, false}, {3, false}, {4, false}, {1, true}, {2, true}, {3, true}} {
		warm, timed := 50_000, 200_000
		if ws.d == 4 {
			warm, timed = 10_000, 40_000 // a d=4 step scans far larger neighbourhoods
		}
		w := walk.New(walk.NewSpace(client, ws.d), ws.nb, rand.New(rand.NewSource(7)))
		w.Burn(warm)
		ns := perOp(timed, func() { w.Step() })
		out[ws.name()] = ns
		v["walk.step_ns."+ws.name()] = ns
	}
	cold := walk.New(walk.NewSpace(client, 3), false, rand.New(rand.NewSource(7)))
	v["walk.step_ns.d3_cold"] = perOp(10_000, func() { cold.Step() })
	return out
}

// timedRun runs fn once to warm caches, then times a second call and counts
// the heap allocations it made.
func timedRun(fn func()) (elapsed time.Duration, mallocs uint64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

const probeSteps = 100_000

// probeCore times warm single-walker runs per method (so ns/step is CPU per
// window, comparable with walk.step_ns), and the checkpoint machinery the
// durable and fleet workloads lean on.
func probeCore(v values, g *graph.Graph, walkNs map[string]float64) {
	client := access.NewGraphClient(g)
	for _, name := range probeMethods {
		var run func()
		ws := walkSpec{2, false}
		if name == "multi345_d2css" {
			est, err := core.NewMultiEstimator(client, core.MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Seed: 7})
			if err != nil {
				continue
			}
			run = func() { _, _ = est.Run(probeSteps) } // a valid config cannot fail on an in-memory graph
		} else {
			cfg := methodConfig(name)
			cfg.Seed = 7
			ws = walkSpec{cfg.D, cfg.NB}
			est, err := core.NewEstimator(client, cfg)
			if err != nil {
				continue
			}
			run = func() { _, _ = est.Run(probeSteps) }
		}
		elapsed, mallocs := timedRun(run)
		ns := float64(elapsed.Nanoseconds()) / probeSteps
		v["core.run_ns_per_step."+name] = ns
		v["core.allocs_per_step."+name] = float64(mallocs) / probeSteps
		v["core.classify_ns_per_step."+name] = ns - walkNs[ws.name()]
	}

	cfg := core.Config{K: 4, D: 2, CSS: true, Seed: 7}
	v["core.new_estimator_us"] = perOp(2000, func() { _, _ = core.NewEstimator(client, cfg) }) / 1e3

	// One barrier: what RunCheckpoints adds over Run, per barrier, at the two
	// walkers the daemon jobs use. The spacing is 25 windows, ten times denser
	// than any workload's, so that 4000 barriers stand out of the run's own
	// timing noise; a barrier's cost (park, merge, callback, respawn) does not
	// depend on how far apart barriers are.
	cfg.Walkers = 2
	est, err := core.NewEstimator(client, cfg)
	if err != nil {
		return
	}
	// The difference of two ~100 ms timings, so each is the best of three.
	best := func(fn func()) time.Duration {
		d, _ := timedRun(fn)
		for i := 0; i < 2; i++ {
			if again, _ := timedRun(fn); again < d {
				d = again
			}
		}
		return d
	}
	plain := best(func() { _, _ = est.Run(probeSteps) })
	barriers := 0
	stepped := best(func() {
		barriers = 0
		_, _ = est.RunCheckpoints(probeSteps, 25, func(int, []float64) { barriers++ })
	})
	if barriers > 0 {
		v["core.barrier_us"] = float64((stepped - plain).Microseconds()) / float64(barriers)
	}

	// Snapshot encode and size, single- and multi-size, W=2, after 100k steps;
	// and what decoding plus Restore costs at that depth. Restore fast-forwards
	// the RNG stream, whose position keeps growing across an estimator's runs,
	// so the snapshot comes from a fresh estimator that ran exactly once.
	once, err := core.NewEstimator(client, cfg)
	if err != nil {
		return
	}
	if _, err := once.Run(probeSteps); err != nil {
		return
	}
	var blob []byte
	v["core.snapshot_encode_us.single"] = perOp(2000, func() { blob = once.Snapshot().Encode() }) / 1e3
	v["core.snapshot_bytes.single"] = float64(len(blob))
	v["core.restore_us"] = perOp(20, func() {
		st, err := core.DecodeEnsembleState(blob)
		if err != nil {
			return
		}
		fresh, err := core.NewEstimator(client, cfg)
		if err != nil {
			return
		}
		_ = fresh.Restore(st) // timing only; a snapshot just taken restores
	}) / 1e3
	multi, err := core.NewMultiEstimator(client, core.MultiConfig{Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 2, Seed: 7})
	if err != nil {
		return
	}
	if _, err := multi.Run(probeSteps); err != nil {
		return
	}
	var mblob []byte
	v["core.snapshot_encode_us.multi"] = perOp(2000, func() { mblob = multi.Snapshot().Encode() }) / 1e3
	v["core.snapshot_bytes.multi"] = float64(len(mblob))
}

// probeAccess counts the paper's cost unit — API calls per step — for three
// methods (a count: it repeats exactly), and times a memoised row read.
func probeAccess(v values, g *graph.Graph) {
	for _, name := range []string{"srw1_k3", "srw2css_k4", "srw3_k4"} {
		counting := access.NewCounting(access.NewGraphClient(g), g.NumNodes())
		cfg := methodConfig(name)
		cfg.Seed = 7
		est, err := core.NewEstimator(counting, cfg)
		if err != nil {
			continue
		}
		if _, err := est.Run(probeSteps); err != nil {
			continue
		}
		st := counting.Stats()
		v["access.calls_per_step."+name] = float64(st.DegreeCalls+st.NeighborCalls+st.EdgeProbes) / probeSteps
	}
	memo := access.NewMemo(access.NewGraphClient(g))
	rng := rand.New(rand.NewSource(7))
	nodes := make([]int32, 1024)
	for i := range nodes {
		nodes[i] = g.RandomNode(rng)
		memo.Neighbors(nodes[i])
	}
	i := 0
	v["access.memo_hit_ns"] = perOp(1_000_000, func() { memo.Neighbors(nodes[i&1023]); i++ })
}

// probeGraph times the storage layer: packing and opening both .gcsr
// versions, parsing the edge list, and row reads / edge probes on each — v2
// once with every block resident and once with a cache that holds one block.
func probeGraph(v values, g *graph.Graph, dir string) {
	v1, v2, txt := filepath.Join(dir, "ba.v1.gcsr"), filepath.Join(dir, "ba.v2.gcsr"), filepath.Join(dir, "ba.txt")
	timeMs := func(fn func() error) (float64, bool) {
		start := time.Now()
		err := fn()
		return ms(time.Since(start)), err == nil
	}
	if t, ok := timeMs(func() error { return graph.SaveOpts(v1, g, graph.SaveOptions{Version: 1}) }); ok {
		v["graph.pack_v1_ms"] = t
	}
	if t, ok := timeMs(func() error { return graph.SaveOpts(v2, g, graph.SaveOptions{Version: 2}) }); ok {
		v["graph.pack_v2_ms"] = t
	}
	for name, path := range map[string]string{"graph.file_bytes_v1": v1, "graph.file_bytes_v2": v2} {
		if st, err := os.Stat(path); err == nil {
			v[name] = float64(st.Size())
		}
	}
	if err := graph.SaveEdgeList(txt, g); err == nil {
		if t, ok := timeMs(func() error { _, err := graph.LoadEdgeList(txt); return err }); ok {
			v["graph.load_edgelist_ms"] = t
		}
	}

	rng := rand.New(rand.NewSource(7))
	nodes := make([]int32, 4096)
	for i := range nodes {
		nodes[i] = g.RandomNode(rng)
	}
	var sink int
	rows := func(m *graph.Graph, n int) float64 {
		i := 0
		return perOp(n, func() { sink += len(m.Neighbors(nodes[i&4095])); i++ })
	}
	probes := func(m *graph.Graph) float64 {
		i := 0
		return perOp(500_000, func() {
			if m.HasEdge(nodes[i&4095], nodes[(i+1)&4095]) {
				sink++
			}
			i++
		})
	}
	open := func(path string, cacheBytes int64) (*graph.Graph, float64, bool) {
		start := time.Now()
		m, err := graph.OpenMappedOpts(path, graph.OpenOptions{BlockCacheBytes: cacheBytes})
		return m, ms(time.Since(start)), err == nil
	}
	if m, t, ok := open(v1, 0); ok {
		v["graph.open_v1_ms"] = t
		rows(m, len(nodes)) // fault the pages in
		v["graph.row_ns_v1"] = rows(m, 500_000)
		v["graph.hasedge_ns_v1"] = probes(m)
		m.Close()
	}
	if m, t, ok := open(v2, 64<<20); ok {
		v["graph.open_v2_ms"] = t
		rows(m, len(nodes)) // decode every touched block once
		v["graph.row_ns_v2_hit"] = rows(m, 500_000)
		v["graph.hasedge_ns_v2"] = probes(m)
		m.Close()
	}
	// A one-byte budget keeps a single block resident: consecutive random
	// rows land in different blocks, so nearly every read decodes one.
	if m, _, ok := open(v2, 1); ok {
		v["graph.row_us_v2_miss"] = rows(m, 400) / 1e3
		m.Close()
	}
	_ = sink
}

// probeJournal times appends of a checkpoint-sized record with and without
// fsync (the fsync figure is the sandbox disk's: a diagnostic), and replay.
func probeJournal(v values, dir string) {
	rec := journal.Record{Type: journal.TypeCheckpoint, Job: "j-1", Payload: bytes.Repeat([]byte{'x'}, 700)}
	appendUs := func(sub string, fsync bool, n int) (float64, *journal.Log) {
		l, err := journal.Open(filepath.Join(dir, sub), journal.Options{Fsync: fsync})
		if err != nil {
			return 0, nil
		}
		return perOp(n, func() { _ = l.Append(rec) }) / 1e3, l // a failed append shows as an absurd time, not a wrong result
	}
	if us, l := appendUs("jnl", false, 10_000); l != nil {
		v["journal.append_us"] = us
		start := time.Now()
		n := 0
		if err := l.Replay(func(journal.Record) error { n++; return nil }); err == nil && n > 0 {
			v["journal.replay_ms_per_10k"] = ms(time.Since(start)) * 10_000 / float64(n)
		}
		l.Close()
	}
	if us, l := appendUs("jnl-fsync", true, 50); l != nil {
		v["journal.append_fsync_us"] = us
		l.Close()
	}
}

// probeDist times the wire codecs and the coordinator-side merge of a
// two-partition, four-walker job like fleet_sync's.
func probeDist(v values, g *graph.Graph) {
	client := access.NewGraphClient(g)
	cfg := core.Config{K: 4, D: 2, CSS: true, Walkers: 4, Seed: 7}
	var parts []*core.EnsembleState
	for _, r := range [][2]int{{0, 2}, {2, 4}} {
		est, err := core.NewPartitionEstimator(client, cfg, r[0], r[1])
		if err != nil {
			return
		}
		if _, err := est.Run(20_000); err != nil {
			return
		}
		parts = append(parts, est.Snapshot())
	}
	asn := &dist.Assignment{
		Graph: baName, Meta: dist.GraphMeta{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()},
		Single: &cfg, Budget: 20_000, Every: 250, Lo: 0, Hi: 2,
	}
	if ns, ok := perOpErr(20_000, func() error { _, err := dist.DecodeAssignment(asn.Encode()); return err }); ok {
		v["dist.assignment_encode_us"] = ns / 1e3
	}
	frame := &dist.Frame{Kind: dist.FrameSnapshot, Target: 20_000, State: parts[0].Encode()}
	if ns, ok := perOpErr(20_000, func() error { _, err := dist.DecodeFrame(frame.Encode()); return err }); ok {
		v["dist.frame_roundtrip_us"] = ns / 1e3
	}
	if ns, ok := perOpErr(20_000, func() error {
		full, err := core.CombinePartitionStates(parts)
		if err != nil {
			return err
		}
		_, err = full.MergedResult()
		return err
	}); ok {
		v["dist.combine_us"] = ns / 1e3
	}
}

// probeService times the admission path with the walk taken out: a cache-hit
// submission straight into the Manager, the same through the HTTP handler,
// and what the obs.Trace front door adds around a no-op handler.
func probeService(v values) {
	reg := service.NewRegistry()
	if err := reg.Add("tiny", "inline", gen.BarabasiAlbert(2000, 4, 7)); err != nil {
		return
	}
	mgr, err := service.NewManager(reg, service.Options{Workers: 1, MaxWalkers: 4})
	if err != nil {
		return
	}
	defer mgr.Close()
	spec := service.Spec{Graph: "tiny", K: 4, D: 2, CSS: true, Steps: 500, Walkers: 1, Seed: 7}
	view, err := mgr.Submit(spec)
	if err != nil {
		return
	}
	if _, err := mgr.Wait(context.Background(), view.ID); err != nil {
		return
	}
	// MaxJobs (4096) prunes old terminal records, so the table stays bounded
	// however many cache hits are timed.
	v["service.submit_inproc_us"] = perOp(20_000, func() { _, _ = mgr.Submit(spec) }) / 1e3

	srv := service.NewServer(reg, mgr)
	body, err := json.Marshal(spec)
	if err != nil {
		return
	}
	post := func(h http.Handler) func() {
		return func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	v["service.http_submit_us"] = perOp(20_000, post(srv)) / 1e3

	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	traced := obs.Trace(noop, obs.TraceOptions{
		Metrics:   obs.NewHTTPMetrics(obs.NewRegistry(), "probe"),
		PathLabel: func(r *http.Request) string { return service.RoutePattern(r.URL.Path) },
	})
	bare := perOp(50_000, post(noop))
	v["obs.trace_overhead_us"] = (perOp(50_000, post(traced)) - bare) / 1e3
}
