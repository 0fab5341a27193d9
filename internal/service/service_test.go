package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testRegistry registers two small deterministic graphs.
func testRegistry(t testing.TB) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add("hk", "inline", gen.HolmeKim(400, 3, 0.6, 11)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("plc", "inline", gen.PowerLawConfiguration(500, 2.5, 2, 60, 12)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// newTestManager builds a manager or fails the test.
func newTestManager(t *testing.T, reg *Registry, opts Options) *Manager {
	t.Helper()
	mgr, err := NewManager(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func postJob(t *testing.T, url string, spec Spec) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func getJob(t *testing.T, url, id string) JobView {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func pollDone(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v := getJob(t, url, id); v.State.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// End-to-end over the HTTP boundary: register graphs, submit 8 concurrent
// jobs across both, poll every job to completion, then re-query one spec and
// get an instant cached answer.
func TestServiceE2E(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 4, MaxWalkers: 4})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()

	// Graph listing and introspection.
	resp, err := http.Get(srv.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Graphs) != 2 {
		t.Fatalf("listed %d graphs, want 2", len(listing.Graphs))
	}
	for _, info := range listing.Graphs {
		if info.Nodes == 0 || info.Edges == 0 || info.MaxDegree == 0 {
			t.Errorf("degenerate graph info %+v", info)
		}
	}

	// 8 concurrent submissions across both graphs, distinct specs.
	specs := make([]Spec, 8)
	for i := range specs {
		g := "hk"
		if i%2 == 1 {
			g = "plc"
		}
		specs[i] = Spec{
			Graph: g, K: 3 + i%2, D: 1 + i%2, CSS: i%2 == 1,
			Steps: 3000, Walkers: 1 + i%3, Seed: int64(100 + i),
		}
	}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			view, status := postJob(t, srv.URL, spec)
			if status != http.StatusAccepted {
				t.Errorf("submit %d: status %d, want 202", i, status)
				return
			}
			ids[i] = view.ID
		}(i, spec)
	}
	wg.Wait()

	for i, id := range ids {
		if id == "" {
			t.Fatalf("submission %d returned no job ID", i)
		}
		final := pollDone(t, srv.URL, id)
		if final.State != StateDone {
			t.Fatalf("job %s: state %s (err %q), want done", id, final.State, final.Error)
		}
		if final.Result == nil || final.Result.Steps != specs[i].Steps {
			t.Fatalf("job %s: bad result %+v", id, final.Result)
		}
		var sum float64
		for _, c := range final.Result.Concentration {
			sum += c
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("job %s: concentration sums to %v", id, sum)
		}
	}

	// Cached re-query: identical spec answers instantly (HTTP 200, terminal
	// state in the submit response, no new estimation run).
	runsBefore := getStats(t, srv.URL).Runs
	view, status := postJob(t, srv.URL, specs[0])
	if status != http.StatusOK {
		t.Fatalf("cached submit: status %d, want 200", status)
	}
	if view.State != StateDone || !view.Cached || view.Result == nil {
		t.Fatalf("cached submit: %+v, want instant done+cached", view)
	}
	orig := pollDone(t, srv.URL, ids[0])
	for i := range view.Result.Concentration {
		if view.Result.Concentration[i] != orig.Result.Concentration[i] {
			t.Fatalf("cached result diverges from original at %d", i)
		}
	}
	st := getStats(t, srv.URL)
	if st.Runs != runsBefore {
		t.Errorf("cached re-query ran an estimation (runs %d -> %d)", runsBefore, st.Runs)
	}
	if st.CacheHits == 0 || st.CacheSize == 0 {
		t.Errorf("stats after cache hit: %+v", st)
	}
}

// gatedClient blocks the walk's seed draw until the gate opens, letting
// tests hold an estimation "in flight" deterministically.
type gatedClient struct {
	access.Client
	gate <-chan struct{}
}

func (c gatedClient) RandomNode(rng *rand.Rand) int32 {
	<-c.gate
	return c.Client.RandomNode(rng)
}

// A thundering herd of identical submissions is coalesced single-flight:
// every client shares one job ID and exactly one estimation runs.
func TestServiceCoalescing(t *testing.T) {
	reg := testRegistry(t)
	gate := make(chan struct{})
	mgr := newTestManager(t, reg, Options{
		Workers: 4, MaxWalkers: 4,
		NewClient: func(g *graph.Graph) access.Client {
			return gatedClient{Client: access.NewGraphClient(g), gate: gate}
		},
	})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()

	spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 2000, Walkers: 2, Seed: 7}
	const herd = 16
	ids := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view, status := postJob(t, srv.URL, spec)
			if status != http.StatusAccepted {
				t.Errorf("herd %d: status %d", i, status)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	close(gate) // release the single estimation

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("herd split across jobs %q and %q, want one shared job", ids[0], id)
		}
	}
	final := pollDone(t, srv.URL, ids[0])
	if final.State != StateDone {
		t.Fatalf("shared job: state %s (err %q)", final.State, final.Error)
	}
	if final.Coalesced != herd {
		t.Errorf("coalesced = %d, want %d", final.Coalesced, herd)
	}
	if st := getStats(t, srv.URL); st.Runs != 1 {
		t.Errorf("herd of %d cost %d estimation runs, want exactly 1", herd, st.Runs)
	}
}

// Cancellation propagates through the HTTP layer and internal/core: the
// walker ensemble stops at a checkpoint barrier well before exhausting its
// step budget, and the job reports the partial progress.
func TestServiceCancellation(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{
		Workers: 2, MaxWalkers: 4, SnapshotEvery: 200,
		NewClient: func(g *graph.Graph) access.Client {
			// Slow the crawl so the budget takes far longer than the test:
			// without cancellation this job would run for minutes.
			return access.NewDelayed(access.NewGraphClient(g), 50*time.Microsecond)
		},
	})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()

	const budget = 2_000_000
	spec := Spec{Graph: "plc", K: 4, D: 2, Steps: budget, Walkers: 2, Seed: 3}
	view, status := postJob(t, srv.URL, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}

	// Wait until the job is demonstrably running (first checkpoint passed).
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, srv.URL, view.ID)
		if v.State == StateRunning && v.Progress.Steps > 0 {
			break
		}
		if v.State.terminal() {
			t.Fatalf("job finished before cancel: %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	final := pollDone(t, srv.URL, view.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
	if final.Progress.Steps == 0 || final.Progress.Steps >= budget {
		t.Fatalf("cancelled job processed %d steps, want in (0, %d)", final.Progress.Steps, budget)
	}
	// Cancelled (partial) runs must not poison the cache.
	if v, status := postJob(t, srv.URL, spec); status != http.StatusAccepted || v.Cached {
		t.Fatalf("resubmit after cancel: status %d cached=%v, want fresh 202", status, v.Cached)
	}
}

// Cancelling a job still waiting in the queue finishes it without a run.
func TestServiceCancelQueued(t *testing.T) {
	reg := testRegistry(t)
	gate := make(chan struct{})
	mgr := newTestManager(t, reg, Options{
		Workers: 1, MaxWalkers: 2,
		NewClient: func(g *graph.Graph) access.Client {
			return gatedClient{Client: access.NewGraphClient(g), gate: gate}
		},
	})
	defer mgr.Close()

	blocker, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := mgr.Cancel(queued.ID); err != nil || v.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", v, err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := mgr.Wait(ctx, blocker.ID); err != nil || v.State != StateDone {
		t.Fatalf("blocker: %+v, %v", v, err)
	}
	if got := mgr.Stats().Runs; got != 1 {
		t.Errorf("runs = %d, want 1 (queued job must not run after cancel)", got)
	}
}

// Admission validation: unknown graphs, bad configs, and specs over the
// walker cap are rejected.
func TestServiceValidation(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 4})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()

	bad := []Spec{
		{Graph: "nope", K: 3, D: 1, Steps: 100},
		{Graph: "hk", K: 9, D: 1, Steps: 100},
		{Graph: "hk", K: 3, D: 1, Steps: 0},
		{Graph: "hk", K: 3, D: 1, Steps: 100, Walkers: 64},
	}
	for i, spec := range bad {
		if _, status := postJob(t, srv.URL, spec); status != http.StatusBadRequest {
			t.Errorf("bad spec %d: status %d, want 400", i, status)
		}
	}
	// Bodies that do not decode to one spec of bounded size: an unknown
	// field; a ≈2 MB spec whose sizes list normalizes to k 3 (past the
	// body cap); two specs back to back.
	huge := []byte(`{"graph":"hk","d":1,"steps":100,"sizes":[3` + strings.Repeat(",3", 1<<20-1) + `]}`)
	two := []byte(`{"graph":"hk","k":3,"d":1,"steps":100}{"graph":"hk","k":3,"d":1,"steps":100}`)
	for name, body := range map[string][]byte{"unknown field": []byte(`{"bogus":1}`), "huge": huge, "two specs": two} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A server walker cap above the engine's is no way around it: a job whose
	// checkpoints could never resume is refused at admission.
	wide := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 70_000})
	defer wide.Close()
	if _, err := wide.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 100, Walkers: 1<<16 + 1}); err == nil {
		t.Error("walkers past the engine cap admitted")
	}
}

// The LRU evicts least-recently-used entries at capacity and get refreshes
// recency.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, nil)
	spec := func(seed int64) Spec { return Spec{Graph: "g", K: 3, D: 1, Steps: 10, Seed: seed} }
	res := func(steps int) *core.Result { return &core.Result{Steps: steps} }
	c.put(spec(1).key(), res(1), "j-1")
	c.put(spec(2).key(), res(2), "j-2")
	if r, ok := c.get(spec(1).key()); !ok || r.Steps != 1 { // refresh 1; 2 becomes LRU
		t.Fatalf("spec 1: %v %v", r, ok)
	}
	c.put(spec(3).key(), res(3), "j-3") // evicts 2
	if _, ok := c.get(spec(2).key()); ok {
		t.Error("spec 2 should have been evicted")
	}
	if _, ok := c.get(spec(1).key()); !ok {
		t.Error("spec 1 should have survived")
	}
	if _, ok := c.get(spec(3).key()); !ok {
		t.Error("spec 3 should be cached")
	}
	if c.len() != 2 {
		t.Errorf("cache len = %d, want 2", c.len())
	}
}

// Walkers 0 and 1 are the same engine configuration and must share one
// cache entry, and the job table stays bounded by MaxJobs under sustained
// cache-hit traffic.
func TestServiceNormalizationAndRetention(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 2, MaxWalkers: 2, MaxJobs: 5})
	defer mgr.Close()

	spec := Spec{Graph: "hk", K: 3, D: 1, Steps: 1500, Walkers: 1, Seed: 21}
	first, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := mgr.Wait(ctx, first.ID); err != nil || v.State != StateDone {
		t.Fatalf("first run: %+v, %v", v, err)
	}

	zero := spec
	zero.Walkers = 0
	v, err := mgr.Submit(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.State != StateDone {
		t.Fatalf("walkers=0 resubmit missed the walkers=1 cache entry: %+v", v)
	}

	// Hammer the cache: job records must be pruned down to MaxJobs.
	for i := 0; i < 20; i++ {
		if _, err := mgr.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr.Stats().Jobs; got > 5 {
		t.Errorf("job table holds %d records, want <= MaxJobs = 5", got)
	}
	if got := mgr.Stats().Runs; got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
}

// panickyClient fails a walk's seed draw, as the HTTP crawl client does on a
// transport error: RandomNode panics once `healthy` draws have gone through.
type panickyClient struct {
	access.Client
	healthy int64
	draws   atomic.Int64
}

func (c *panickyClient) RandomNode(rng *rand.Rand) int32 {
	if c.draws.Add(1) > c.healthy {
		panic("transport down")
	}
	return c.Client.RandomNode(rng)
}

// A client panic fails the job instead of crashing the daemon, wherever the
// engine was when it happened; subsequent jobs still run.
func TestServicePanicFailsJob(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		name    string
		peers   []string
		healthy int64
		spec    Spec
	}{
		{name: "seed draw", spec: Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Seed: 4}},
		// Every peer is dead, so both partitions fail over in process:
		// partition 0 (walker 0) on the job's goroutine, partition 1 (walkers
		// 1 and 2) on its own. Each draws its seeds through its own client, so
		// the second draw is partition 1's — on a goroutine no caller of
		// dist.Run could have guarded.
		{name: "failover partition seed draw", peers: []string{dead.URL}, healthy: 1,
			spec: Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Walkers: 3, Seed: 4, Nodes: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := true
			mgr := newTestManager(t, testRegistry(t), Options{
				Workers: 1, MaxWalkers: 4, Peers: tc.peers, DistBackoff: time.Millisecond,
				NewClient: func(g *graph.Graph) access.Client {
					if broken {
						return &panickyClient{Client: access.NewGraphClient(g), healthy: tc.healthy}
					}
					return access.NewGraphClient(g)
				},
			})
			defer mgr.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			v, err := mgr.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if v, err = mgr.Wait(ctx, v.ID); err != nil || v.State != StateFailed {
				t.Fatalf("broken-client job: %+v, %v, want failed", v, err)
			}
			if !strings.Contains(v.Error, "transport down") {
				t.Errorf("job error %q does not surface the panic", v.Error)
			}

			broken = false
			tc.spec.Seed++
			if v, err = mgr.Submit(tc.spec); err != nil {
				t.Fatal(err)
			}
			if v, err = mgr.Wait(ctx, v.ID); err != nil || v.State != StateDone {
				t.Fatalf("daemon did not survive the panic: %+v, %v", v, err)
			}
		})
	}
}

// The routes the end-to-end tests do not walk: the job listing, one graph's
// introspection, unknown graphs, wrong methods and unknown paths. Every
// error answers with a JSON body carrying the message.
func TestServerRoutes(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 1})
	defer mgr.Close()
	srv := httptest.NewServer(NewServer(reg, mgr))
	defer srv.Close()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		v, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	hk, _ := reg.Info("hk")

	for _, tc := range []struct {
		method, path string
		status       int
		check        func(t *testing.T, body []byte)
	}{
		{http.MethodGet, "/v1/jobs", http.StatusOK, func(t *testing.T, body []byte) {
			var listing struct {
				Jobs []JobView `json:"jobs"`
			}
			if err := json.Unmarshal(body, &listing); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, v := range listing.Jobs {
				got = append(got, v.ID)
			}
			if strings.Join(got, ",") != strings.Join(ids, ",") {
				t.Errorf("listed jobs %v, want %v in submission order", got, ids)
			}
		}},
		{http.MethodGet, "/v1/graphs/hk", http.StatusOK, func(t *testing.T, body []byte) {
			var info GraphInfo
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			if info != hk {
				t.Errorf("graph info %+v, want %+v", info, hk)
			}
		}},
		{http.MethodGet, "/v1/graphs/nope", http.StatusNotFound, nil},
		{http.MethodDelete, "/v1/graphs/nope", http.StatusNotFound, nil},
		{http.MethodPut, "/v1/graphs/hk", http.StatusMethodNotAllowed, nil},
		{http.MethodPut, "/v1/jobs/" + ids[0], http.StatusMethodNotAllowed, nil},
		{http.MethodGet, "/v1/nothing", http.StatusNotFound, nil},
	} {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			if _, err := body.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body.Bytes())
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			// A 405 names the methods the resource does support.
			if tc.status == http.StatusMethodNotAllowed {
				if allow := resp.Header.Get("Allow"); allow != "GET, DELETE" {
					t.Errorf("Allow %q, want %q", allow, "GET, DELETE")
				}
			}
			if tc.check != nil {
				tc.check(t, body.Bytes())
				return
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body %s, want a JSON error message", body.Bytes())
			}
		})
	}
}
