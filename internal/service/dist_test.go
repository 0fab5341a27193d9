package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// startWorkerNodes brings up n graphletd-style worker nodes sharing the
// registry and returns their base URLs.
func startWorkerNodes(t *testing.T, reg *Registry, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		wmgr := newTestManager(t, reg, Options{})
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

	peers := startWorkerNodes(t, reg, 2)
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

	peers := startWorkerNodes(t, reg, 2)
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
// stream after two snapshot frames — a node dying mid-partition.
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

// TestDistributedJobFailover kills a worker mid-partition and asserts the
// job completes byte-identical to a local run with exact resumed-step
// accounting: the retried partition preserves precisely its quota share of
// the last streamed snapshot (target 1000 after two frames at spacing 500).
func TestDistributedJobFailover(t *testing.T) {
	reg := testRegistry(t)
	spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 3000, Walkers: 4, Seed: 12}

	localMgr := newTestManager(t, reg, Options{SnapshotEvery: 500})
	defer localMgr.Close()
	want := runToResult(t, localMgr, spec)

	wmgr := newTestManager(t, reg, Options{})
	defer wmgr.Close()
	killSrv := httptest.NewServer(&killOnceWorker{mgr: wmgr})
	t.Cleanup(killSrv.Close)
	healthy := startWorkerNodes(t, reg, 1)

	mgr := newTestManager(t, reg, Options{
		SnapshotEvery: 500,
		Peers:         []string{killSrv.URL, healthy[0]},
		DistBackoff:   time.Millisecond,
	})
	defer mgr.Close()
	distSpec := spec
	distSpec.Nodes = 2
	got := runToResult(t, mgr, distSpec)
	if got.State != StateDone {
		t.Fatalf("failover run: %s (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("failover result differs from local run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	// Partition 0 ([0,2) of 4 walkers) resumed from the target-1000
	// snapshot; its preserved share is exactly PartitionWindows(1000,4,0,2).
	wantResumed := core.PartitionWindows(1000, 4, 0, 2)
	if got.Progress.ResumedSteps != wantResumed {
		t.Errorf("resumed_steps %d, want %d", got.Progress.ResumedSteps, wantResumed)
	}
}

// TestDistributedCoordinatorRecovery crashes the coordinator between fleet
// syncs (SIGKILL-style: the fleet freezes, the manager is abandoned without
// a Close) and restarts it with no peers at all: the journaled combined
// snapshot must resume through the ordinary local path and finish
// byte-identical.
func TestDistributedCoordinatorRecovery(t *testing.T) {
	reg := testRegistry(t)
	spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 60000, Walkers: 4, Seed: 31, Nodes: 2}
	dir := t.TempDir()

	localMgr := newTestManager(t, reg, Options{SnapshotEvery: 2000})
	defer localMgr.Close()
	base := spec
	base.Nodes = 0
	want := runToResult(t, localMgr, base)

	// Worker nodes whose crawl clients freeze the fleet as soon as the
	// coordinator has journaled a fleet-wide sync of 4000 steps or more; the
	// gate is closed at cleanup so their stranded partition handlers abort
	// and drain (cleanups run LIFO, so this happens before the servers shut
	// down).
	crash := newCrashPoint(4000)
	peers := make([]string, 2)
	for i := range peers {
		wmgr := newTestManager(t, reg, Options{NewClient: crash.client})
		t.Cleanup(wmgr.Close)
		srv := NewServer(reg, wmgr)
		srv.Partitions = &dist.Handler{Lookup: wmgr.PartitionLookup()}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		peers[i] = hs.URL
	}
	t.Cleanup(func() { close(crash.gate) })

	mgr := newTestManager(t, reg, Options{
		SnapshotEvery: 2000,
		Peers:         peers,
		DistBackoff:   time.Millisecond,
		DataDir:       dir,
	})
	crash.mgr.Store(mgr)
	view, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Once the fleet has frozen itself, abandon the coordinator (no Close →
	// no terminal record).
	crash.await(t, view.ID)
	// Flush what is queued and stop the journal writer, as dead as a killed
	// process: a frame still in flight when the fleet froze must not append
	// to the log while the restarted coordinator reads it.
	mgr.jq.close()
	mgr.jnlWg.Wait()

	// Restart with no fleet: the combined snapshot is a plain full-ensemble
	// state, so the job resumes locally through the existing machinery.
	mgr2 := newTestManager(t, reg, Options{SnapshotEvery: 2000, DataDir: dir})
	defer mgr2.Close()
	got, err := mgr2.Wait(t.Context(), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("recovered job: %s (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("recovered result differs from local run:\n got %+v\nwant %+v", got.Result, want.Result)
	}
	if got.Progress.ResumedSteps < 4000 {
		t.Errorf("recovered job resumed %d steps, want >= 4000", got.Progress.ResumedSteps)
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
