package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/dist"
	"repro/internal/graph"
)

// startWorkerNodes brings up n graphletd-style worker nodes sharing the
// registry — crawling through newClient when it is not nil — and returns
// their base URLs.
func startWorkerNodes(t *testing.T, reg *Registry, n int, newClient func(*graph.Graph) access.Client) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		wmgr := newTestManager(t, reg, Options{NewClient: newClient})
		t.Cleanup(wmgr.Close)
		srv := NewServer(reg, wmgr)
		srv.Partitions = &dist.Handler{Lookup: wmgr.PartitionLookup()}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

// runToResult submits a spec and waits for the terminal view.
func runToResult(t *testing.T, mgr *Manager, spec Spec) JobView {
	t.Helper()
	view, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	view, err = mgr.Wait(t.Context(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestDistributedJobByteIdentical runs the same spec locally and fanned over
// two worker nodes and asserts identical result bytes — and that, because
// Nodes is excluded from the cache key, the distributed run warms the cache
// for a later local ask of the same spec.
func TestDistributedJobByteIdentical(t *testing.T) {
	reg := testRegistry(t)
	spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 2000, Walkers: 4, Seed: 99}

	localMgr := newTestManager(t, reg, Options{SnapshotEvery: 500})
	defer localMgr.Close()
	want := runToResult(t, localMgr, spec)
	if want.State != StateDone {
		t.Fatalf("local run: %s (%s)", want.State, want.Error)
	}

	peers := startWorkerNodes(t, reg, 2, nil)
	mgr := newTestManager(t, reg, Options{
		SnapshotEvery: 500,
		Peers:         peers,
		DistBackoff:   time.Millisecond,
	})
	defer mgr.Close()

	distSpec := spec
	distSpec.Nodes = 3
	got := runToResult(t, mgr, distSpec)
	if got.State != StateDone {
		t.Fatalf("distributed run: %s (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("distributed result differs from local run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	if got.Progress.ResumedSteps != 0 {
		t.Errorf("uninterrupted distributed run reports resumed_steps %d", got.Progress.ResumedSteps)
	}

	// Cache-key symmetry: a local re-ask of the distributed run's spec is a
	// warm hit, because the result bytes cannot depend on Nodes.
	again := runToResult(t, mgr, spec)
	if !again.Cached {
		t.Error("local re-ask of a distributed run's spec missed the cache")
	}
	if !reflect.DeepEqual(again.Result, want.Result) {
		t.Error("cached result differs from local run")
	}
}

// TestDistributedMultiJob runs a shared-walk multi-size job across the fleet
// and asserts per-size results identical to a local run, including the
// cache fan-out for later single-size asks.
func TestDistributedMultiJob(t *testing.T) {
	reg := testRegistry(t)
	spec := Spec{Graph: "hk", Sizes: []int{3, 4}, D: 2, CSS: true, Steps: 2000, Walkers: 4, Seed: 7}

	localMgr := newTestManager(t, reg, Options{SnapshotEvery: 500})
	defer localMgr.Close()
	want := runToResult(t, localMgr, spec)
	if want.State != StateDone {
		t.Fatalf("local run: %s (%s)", want.State, want.Error)
	}

	peers := startWorkerNodes(t, reg, 2, nil)
	mgr := newTestManager(t, reg, Options{
		SnapshotEvery: 500,
		Peers:         peers,
		DistBackoff:   time.Millisecond,
	})
	defer mgr.Close()
	distSpec := spec
	distSpec.Nodes = 2
	got := runToResult(t, mgr, distSpec)
	if got.State != StateDone {
		t.Fatalf("distributed run: %s (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("distributed multi results differ from local run:\n got %+v\nwant %+v", got.Results, want.Results)
	}

	// Fan-out fill: a single-size ask covered by the multi run is warm.
	single := Spec{Graph: "hk", K: 3, D: 2, CSS: true, Steps: 2000, Walkers: 4, Seed: 7}
	if view := runToResult(t, mgr, single); !view.Cached {
		t.Error("single-size ask after distributed multi run missed the cache")
	}
}

// killOnceWorker proxies the worker endpoint but aborts its first partition
// stream after two frames — a node dying mid-partition (TestJobParity's
// nodes2-kill execution).
type killOnceWorker struct {
	mgr    *Manager
	killed bool
}

func (k *killOnceWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killed {
		(&dist.Handler{Lookup: k.mgr.PartitionLookup()}).ServeHTTP(w, r)
		return
	}
	k.killed = true
	body, _ := io.ReadAll(r.Body)
	asn, err := dist.DecodeAssignment(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	client, _, _ := k.mgr.PartitionLookup()(asn.Graph)
	w.WriteHeader(http.StatusOK)
	frames := 0
	_ = dist.RunPartition(r.Context(), client, asn, func(f *dist.Frame) error {
		if frames >= 2 {
			panic(http.ErrAbortHandler)
		}
		frames++
		if err := dist.WriteFrame(w, f); err != nil {
			return err
		}
		w.(http.Flusher).Flush()
		return nil
	})
}

// crashEvery is the checkpoint spacing of the two coordinator-recovery tests.
const crashEvery = 2000

// crashCoordinator runs a `nodes: 2` job over two worker nodes until the
// coordinator has journaled a fleet-wide sync of 4000 steps or more, then
// kills the coordinator SIGKILL-style: the fleet freezes (crashPoint), the
// manager is abandoned without a Close, hence without a terminal record, and
// its journal writer is stopped. It returns the data dir, the job's ID, the
// last journaled checkpoint target, and the result of the same spec run
// locally without interruption.
func crashCoordinator(t *testing.T, reg *Registry) (dir, id string, target int, want JobView) {
	t.Helper()
	const at = 4000
	spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 60000, Walkers: 4, Seed: 31}
	localMgr := newTestManager(t, reg, Options{SnapshotEvery: crashEvery})
	defer localMgr.Close()
	want = runToResult(t, localMgr, spec)

	// Worker nodes whose crawl clients freeze the fleet as soon as the
	// coordinator has journaled the sync; the gate is closed at cleanup so
	// their stranded partition handlers abort and drain (cleanups run LIFO,
	// so this happens before the servers shut down).
	crash := newCrashPoint(at)
	peers := startWorkerNodes(t, reg, 2, crash.client)
	t.Cleanup(func() { close(crash.gate) })

	dir = t.TempDir()
	mgr := newTestManager(t, reg, Options{
		SnapshotEvery: crashEvery,
		Peers:         peers,
		DistBackoff:   time.Millisecond,
		DataDir:       dir,
	})
	crash.mgr.Store(mgr)
	spec.Nodes = 2
	view, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	crash.await(t, view.ID)
	// A frame still in flight when the fleet froze must not append to the
	// log while the restarted coordinator reads it.
	mgr.crashJournal()
	ckpts := journaledCheckpoints(t, dir, view.ID)
	if len(ckpts) == 0 || ckpts[len(ckpts)-1].Steps < at {
		t.Fatalf("coordinator died after %d journaled syncs, want the last at %d or later", len(ckpts), at)
	}
	return dir, view.ID, ckpts[len(ckpts)-1].Steps, want
}

// TestDistributedCoordinatorRecovery crashes the coordinator between fleet
// syncs and restarts it with no peers at all: the journaled combined snapshot
// is a plain full-ensemble state, so the job resumes as one partition in
// process — the same path, a shorter peer list — and finishes byte-identical.
func TestDistributedCoordinatorRecovery(t *testing.T) {
	reg := testRegistry(t)
	dir, id, target, want := crashCoordinator(t, reg)

	mgr2 := newTestManager(t, reg, Options{SnapshotEvery: crashEvery, DataDir: dir})
	defer mgr2.Close()
	got := waitDone(t, mgr2, id)
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered result differs from local run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	if got.Progress.ResumedSteps != target {
		t.Errorf("recovered job resumed %d steps, want the journaled %d", got.Progress.ResumedSteps, target)
	}
}

// TestDistributedCoordinatorRecoveryWithFleet restarts the crashed coordinator
// on the same data dir with a healthy fleet: every partition resumes from its
// slice of the journaled snapshot, and the resumed work is credited once — the
// job view, /v1/stats and the journaled target agree.
func TestDistributedCoordinatorRecoveryWithFleet(t *testing.T) {
	reg := testRegistry(t)
	dir, id, target, want := crashCoordinator(t, reg)

	mgr2 := newTestManager(t, reg, Options{
		SnapshotEvery: crashEvery,
		Peers:         startWorkerNodes(t, reg, 2, nil),
		DistBackoff:   time.Millisecond,
		DataDir:       dir,
	})
	defer mgr2.Close()
	got := waitDone(t, mgr2, id)
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered result differs from local run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	if view, stats := got.Progress.ResumedSteps, mgr2.Stats().ResumedSteps; view != target || stats != int64(target) {
		t.Errorf("resumed_steps: job view %d, stats %d, journaled target %d — want all three equal", view, stats, target)
	}
}

// TestPartitionsRouteDisabled pins the 404 for nodes not started as workers.
func TestPartitionsRouteDisabled(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v1/partitions", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}
