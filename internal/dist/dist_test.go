package dist

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

func testGraph() *graph.Graph { return gen.ErdosRenyiGNM(250, 800, 5) }

func metaOf(g *graph.Graph) GraphMeta {
	return GraphMeta{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
}

func lookupFor(g *graph.Graph, name string) func(string) (access.Client, GraphMeta, bool) {
	return func(n string) (access.Client, GraphMeta, bool) {
		if n != name {
			return nil, GraphMeta{}, false
		}
		return access.NewGraphClient(g), metaOf(g), true
	}
}

// startWorkers brings up n worker servers over g and returns their base URLs.
func startWorkers(t *testing.T, g *graph.Graph, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(&Handler{Lookup: lookupFor(g, "test")})
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestDistributedByteIdentical is the tentpole acceptance test: a job fanned
// across two workers in three partitions produces exactly the bytes of a
// local run, and every OnSync checkpoint is itself a valid full-ensemble
// state whose merged result matches the local run at that target.
func TestDistributedByteIdentical(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 5, Seed: 99}
	const n, every = 3000, 500

	local, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAt := map[int]*core.MultiResult{}
	want, err := local.RunCheckpointsCtx(t.Context(), n, every, func(step int, _ map[int][]float64) {
		r, err := local.Snapshot().MergedResult()
		if err != nil {
			t.Errorf("local merged result at %d: %v", step, err)
			return
		}
		wantAt[step] = r
	})
	if err != nil {
		t.Fatal(err)
	}

	// OnSync is serialized by the coordinator and Run joins its partitions, so
	// the slice needs no lock of its own.
	var syncs []*core.EnsembleState
	peers := startWorkers(t, g, 2)
	final, err := Run(t.Context(), Options{
		Peers:    peers,
		OnSync:   func(combined *core.EnsembleState) { syncs = append(syncs, combined) },
		OnResume: func(int) { t.Error("OnResume fired for an uninterrupted run") },
	}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
	}, 3), nil)
	if err != nil {
		t.Fatal(err)
	}

	got := merged(t, final)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed result differs from local run:\n got %+v\nwant %+v", got, want)
	}

	syncTargets := make([]int, len(syncs))
	for i, st := range syncs {
		syncTargets[i] = st.WindowsDone
	}
	for i := 1; i < len(syncTargets); i++ {
		if syncTargets[i] <= syncTargets[i-1] {
			t.Fatalf("sync targets not strictly increasing: %v", syncTargets)
		}
	}
	if last := syncTargets[len(syncTargets)-1]; last != n {
		t.Fatalf("final sync at %d, want %d (targets %v)", last, n, syncTargets)
	}
	for _, st := range syncs {
		if r := merged(t, st); !reflect.DeepEqual(r, wantAt[st.WindowsDone]) {
			t.Errorf("sync state at %d differs from local checkpoint", st.WindowsDone)
		}
	}
}

// merged is the merged result of the full-ensemble state Run returned.
func merged(t *testing.T, final *core.EnsembleState) *core.MultiResult {
	t.Helper()
	r, err := final.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// servePartition is Handler's happy path with a seam for faults: it decodes the
// assignment, hands it to seen, then runs the partition over g and writes
// every frame after passing it to hook, which may alter the frame or abort
// the connection.
func servePartition(g *graph.Graph, w http.ResponseWriter, r *http.Request, seen func(*Assignment), hook func(*Frame)) {
	body, _ := io.ReadAll(r.Body)
	asn, err := DecodeAssignment(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seen(asn)
	w.WriteHeader(http.StatusOK)
	_ = RunPartition(r.Context(), access.NewGraphClient(g), asn, func(f *Frame) error {
		hook(f)
		if err := WriteFrame(w, f); err != nil {
			return err
		}
		w.(http.Flusher).Flush()
		return nil
	})
}

// killingWorker serves partitions but aborts the connection after passing
// killAfter frames, once; subsequent requests run healthy.
type killingWorker struct {
	g         *graph.Graph
	killAfter int
	killed    atomic.Bool
}

func (k *killingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killed.Swap(true) {
		(&Handler{Lookup: lookupFor(k.g, "test")}).ServeHTTP(w, r)
		return
	}
	// First request: stream killAfter frames, then die mid-partition.
	frames := 0
	servePartition(k.g, w, r, func(*Assignment) {}, func(*Frame) {
		if frames >= k.killAfter {
			panic(http.ErrAbortHandler) // hard connection drop, like a crashed node
		}
		frames++
	})
}

// TestDistributedFailover kills a worker two checkpoints into a partition
// and asserts the job still completes with a byte-identical result, the
// retry resumes from the last streamed snapshot, and the preserved-window
// accounting is exact.
func TestDistributedFailover(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 4, Seed: 12}
	const n, every = 3000, 500

	want, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	killer := &killingWorker{g: g, killAfter: 2} // dies after targets 500, 1000
	killSrv := httptest.NewServer(killer)
	t.Cleanup(killSrv.Close)
	healthy := startWorkers(t, g, 1)

	var resumedMu sync.Mutex
	var resumed []int
	asns := PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
	}, 2)
	final, err := Run(t.Context(), Options{
		// Partition 0's first attempt lands on the killer; its retry rotates
		// to the healthy worker.
		Peers:   []string{killSrv.URL, healthy[0]},
		Backoff: time.Millisecond,
		OnResume: func(preserved int) {
			resumedMu.Lock()
			defer resumedMu.Unlock()
			resumed = append(resumed, preserved)
		},
	}, asns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged(t, final); !reflect.DeepEqual(got, wantRes) {
		t.Errorf("failover result differs from local run:\n got %+v\nwant %+v", got, wantRes)
	}

	// Exactly one partition resumed, preserving its quota share of the last
	// snapshot the dead worker streamed (target 1000).
	resumedMu.Lock()
	defer resumedMu.Unlock()
	wantPreserved := core.PartitionWindows(1000, cfg.Walkers, asns[0].Lo, asns[0].Hi)
	if len(resumed) != 1 || resumed[0] != wantPreserved {
		t.Errorf("resumed windows %v, want [%d]", resumed, wantPreserved)
	}
}

// tamperingWorkers serve partitions like Handler, except that — once per
// fleet — the snapshot frame of partition [0, hi) at target `at` has its state
// bytes replaced by tamper's. Every assignment received is kept for the test
// (recorded before its stream starts, so a finished Run has seen them all).
type tamperingWorkers struct {
	g      *graph.Graph
	at     int
	tamper func(state []byte) []byte
	done   atomic.Bool

	mu   sync.Mutex
	asns []*Assignment
}

func (w *tamperingWorkers) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	first := false
	servePartition(w.g, rw, r, func(asn *Assignment) {
		first = asn.Lo == 0
		w.mu.Lock()
		w.asns = append(w.asns, asn)
		w.mu.Unlock()
	}, func(f *Frame) {
		if first && f.Kind == FrameSnapshot && f.Target == w.at && w.done.CompareAndSwap(false, true) {
			f.State = w.tamper(f.State)
		}
	})
}

// TestPeerStateValidatedAtReceipt: a frame whose state bytes do not parse, or
// parse to a state that is not at the frame's target, fails the attempt of
// the partition that sent it — one retry, from the last good state — and is
// never held as resume state: no later assignment carries it, the other
// partition is not disturbed, and nothing falls back to the coordinator.
func TestPeerStateValidatedAtReceipt(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 4, Seed: 12}
	const n, every, at = 3000, 500, 1000
	local, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("not an ensemble\x00\xff\x01\x02")

	for name, tamper := range map[string]func([]byte) []byte{
		"garbage": func([]byte) []byte { return garbage },
		"wrong target": func(state []byte) []byte {
			st, err := core.DecodeEnsembleState(state)
			if err != nil {
				t.Error(err)
				return state
			}
			st.WindowsDone += every // well-formed, but not the state of this frame
			return st.Encode()
		},
	} {
		t.Run(name, func(t *testing.T) {
			fleet := &tamperingWorkers{g: g, at: at, tamper: tamper}
			peers := make([]string, 2)
			for i := range peers {
				srv := httptest.NewServer(fleet)
				t.Cleanup(srv.Close)
				peers[i] = srv.URL
			}
			met := NewMetrics(obs.NewRegistry())
			final, err := Run(t.Context(), Options{
				Peers:       peers,
				Backoff:     time.Millisecond,
				LocalClient: func() access.Client { return access.NewGraphClient(g) },
				Metrics:     met,
			}, PartitionAssignments(Assignment{
				Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
			}, 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged(t, final); !reflect.DeepEqual(got, want) {
				t.Errorf("result differs from local run:\n got %+v\nwant %+v", got, want)
			}
			if !fleet.done.Load() {
				t.Fatal("no frame was tampered with")
			}
			if r, f := met.Partitions.With("retried").Value(), met.Partitions.With("failover_local").Value(); r != 1 || f != 0 {
				t.Errorf("retried %d, failover_local %d, want 1 and 0", r, f)
			}
			// Three assignments: one per partition, and the retry of the
			// partition that sent the bad frame, resuming from the state before.
			var retries []*Assignment
			for _, asn := range fleet.asns {
				if len(asn.Resume) > 0 {
					retries = append(retries, asn)
				}
			}
			if len(fleet.asns) != 3 || len(retries) != 1 {
				t.Fatalf("%d assignments, %d with resume state, want 3 and 1", len(fleet.asns), len(retries))
			}
			st, err := core.DecodeEnsembleState(retries[0].Resume)
			if err != nil {
				t.Fatalf("the tampered bytes were re-sent as resume state: %v", err)
			}
			if retries[0].Lo != 0 || st.WindowsDone != at-every {
				t.Errorf("retry of partition [%d,%d) resumes from %d, want partition [0,2) from %d",
					retries[0].Lo, retries[0].Hi, st.WindowsDone, at-every)
			}
		})
	}
}

// TestDistributedLocalFailover exhausts remote retries against a dead peer
// and asserts the coordinator finishes the partition locally, still
// byte-identical.
func TestDistributedLocalFailover(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{3}, D: 1, Walkers: 3, Seed: 7}
	const n = 1500

	want, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no capacity", http.StatusTooManyRequests)
	}))
	t.Cleanup(dead.Close)

	final, err := Run(t.Context(), Options{
		Peers:       []string{dead.URL},
		Retries:     2,
		Backoff:     time.Millisecond,
		LocalClient: func() access.Client { return access.NewGraphClient(g) },
	}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: 500,
	}, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged(t, final); !reflect.DeepEqual(got, wantRes) {
		t.Errorf("local-failover result differs from local run")
	}
}

// TestDistributedStall asserts the stream watchdog abandons a worker that
// accepts the partition and then produces no frames.
func TestDistributedStall(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{3}, D: 1, Walkers: 2, Seed: 5}
	const n = 1000

	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done() // accept, then never send a frame
	}))
	t.Cleanup(stuck.Close)

	want, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	final, err := Run(t.Context(), Options{
		Peers:        []string{stuck.URL},
		Retries:      1,
		StallTimeout: 100 * time.Millisecond,
		LocalClient:  func() access.Client { return access.NewGraphClient(g) },
	}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: 0,
	}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stalled stream took %s to abandon", elapsed)
	}
	if got := merged(t, final); !reflect.DeepEqual(got, wantRes) {
		t.Errorf("post-stall result differs from local run")
	}
}

// TestDistributedMulti runs the shared-walk multi-size engine through the
// full worker/coordinator path.
func TestDistributedMulti(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{3, 4}, D: 2, CSS: true, Walkers: 4, Seed: 41}
	const n, every = 2000, 500

	local, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	peers := startWorkers(t, g, 2)
	final, err := Run(t.Context(), Options{Peers: peers}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
	}, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := merged(t, final)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed multi result differs from local run:\n got %+v\nwant %+v", got, want)
	}
}

// TestDistributedStarRecovery runs the paper's §3.2 star recovery, with a
// burn-in, as two partitions on two workers: both options travel in the
// assignment, and the result is bit-equal to one local run.
func TestDistributedStarRecovery(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 25, Walkers: 4}
	const n, every = 2000, 500

	local, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if want.Results[4].Weights[1] == 0 {
		t.Fatal("local run recovered no 3-star weight")
	}

	peers := startWorkers(t, g, 2)
	final, err := Run(t.Context(), Options{Peers: peers}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
	}, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged(t, final); !reflect.DeepEqual(got, want) {
		t.Errorf("distributed star recovery differs from local run:\n got %+v\nwant %+v", got, want)
	}
}

// TestCoordinatorResume covers coordinator crash recovery: a run resumed from
// a decoded full-ensemble snapshot completes to the same bytes, OnResume sums
// to exactly the snapshot's windows, and no target at or below it syncs again.
func TestCoordinatorResume(t *testing.T) {
	g := testGraph()
	cfg := core.MultiConfig{Sizes: []int{4}, D: 2, CSS: true, Walkers: 5, Seed: 3}
	const n, every, crashAt = 3000, 500, 1500

	local, err := core.NewMultiEstimator(access.NewGraphClient(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	want, err := local.RunCheckpointsCtx(t.Context(), n, every, func(step int, _ map[int][]float64) {
		if step == crashAt {
			blob = local.Snapshot().Encode()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.DecodeEnsembleState(blob)
	if err != nil {
		t.Fatal(err)
	}

	var resumedTotal atomic.Int64
	peers := startWorkers(t, g, 2)
	final, err := Run(t.Context(), Options{
		Peers:    peers,
		OnResume: func(preserved int) { resumedTotal.Add(int64(preserved)) },
		OnSync: func(combined *core.EnsembleState) {
			if combined.WindowsDone <= crashAt {
				t.Errorf("target %d synced again after resuming from %d", combined.WindowsDone, crashAt)
			}
		},
	}, PartitionAssignments(Assignment{
		Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: n, Every: every,
	}, 3), full)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged(t, final); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed distributed result differs from local run")
	}
	if got := resumedTotal.Load(); got != crashAt {
		t.Errorf("resumed windows %d, want %d", got, crashAt)
	}
}

// TestWorkerRejects pins the worker's up-front status codes.
func TestWorkerRejects(t *testing.T) {
	g := testGraph()
	srv := httptest.NewServer(&Handler{Lookup: lookupFor(g, "test")})
	t.Cleanup(srv.Close)

	cfg := core.MultiConfig{Sizes: []int{3}, D: 1, Seed: 1}
	good := Assignment{Graph: "test", Meta: metaOf(g), Multi: &cfg, Budget: 10, Lo: 0, Hi: 1}

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post([]byte("garbage")); code != http.StatusBadRequest {
		t.Errorf("malformed assignment: status %d, want 400", code)
	}
	unknown := good
	unknown.Graph = "nope"
	if code := post(unknown.Encode()); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want 404", code)
	}
	mismatch := good
	mismatch.Meta.Nodes++
	if code := post(mismatch.Encode()); code != http.StatusConflict {
		t.Errorf("meta mismatch: status %d, want 409", code)
	}
	if code := post(good.Encode()); code != http.StatusOK {
		t.Errorf("valid assignment: status %d, want 200", code)
	}
	// More walkers than a state can carry is refused before one is built; the
	// partition asks for only the first, so a worker that did build it would
	// answer 200.
	crowd := core.MultiConfig{Sizes: []int{3}, D: 1, Walkers: 1<<16 + 1, Seed: 1}
	if code := post((&Assignment{Graph: "test", Meta: metaOf(g), Multi: &crowd, Budget: 10, Lo: 0, Hi: 1}).Encode()); code != http.StatusBadRequest {
		t.Errorf("walkers past the state cap: status %d, want 400", code)
	}

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}
