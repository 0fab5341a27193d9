package service

import (
	"context"
	"strings"
	"testing"
	"time"
)

// waitDone submits nothing; it waits for id to finish Done or fails the test.
func waitDone(t *testing.T, mgr *Manager, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := mgr.Wait(ctx, id)
	if err != nil || v.State != StateDone {
		t.Fatalf("job %s: %+v, %v", id, v, err)
	}
	return v
}

// sameJobResult compares two rendered results field by field (byte identity:
// float64 == is exact).
func sameJobResult(t *testing.T, label string, got, want *JobResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing result: got %+v, want %+v", label, got, want)
	}
	if got.Steps != want.Steps || got.ValidSamples != want.ValidSamples {
		t.Fatalf("%s: result shape differs: %+v vs %+v", label, got, want)
	}
	for i := range want.Weights {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, got.Weights[i], want.Weights[i])
		}
	}
	for i := range want.Concentration {
		if got.Concentration[i] != want.Concentration[i] {
			t.Fatalf("%s: concentration %d differs: %v vs %v", label, i, got.Concentration[i], want.Concentration[i])
		}
	}
}

// The multi-size tentpole end to end: one shared-walk job covers sizes 3..5
// paying the step budget once, its per-size results are byte-identical to
// independent single-size runs of the same (Config, Seed), and the fan-out
// leaves every covered single-size spec a warm cache hit.
func TestMultiJobFanOut(t *testing.T) {
	multi := Spec{Graph: "hk", Sizes: []int{3, 4, 5}, D: 2, CSS: true, Steps: 4000, Walkers: 2, Seed: 99}

	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 2})
	defer mgr.Close()
	v, err := mgr.Submit(multi)
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, mgr, v.ID)
	if v.Result != nil {
		t.Errorf("multi job rendered a single Result: %+v", v.Result)
	}
	if len(v.Results) != 3 {
		t.Fatalf("multi job results: %+v, want one per size", v.Results)
	}
	if len(v.Progress.Concentrations) != 3 {
		t.Errorf("multi job progress concentrations: %+v, want one per size", v.Progress.Concentrations)
	}
	if st := mgr.Stats(); st.MultiRuns != 1 || st.Runs != 1 || st.CacheSize != 3 {
		t.Fatalf("stats after multi run: %+v, want 1 run fanned out into 3 cache entries", st)
	}

	// Per-size byte identity against independent single-size runs (on a
	// fresh manager, so nothing is answered from this manager's cache).
	refMgr := newTestManager(t, testRegistry(t), Options{Workers: 1, MaxWalkers: 2})
	defer refMgr.Close()
	for _, k := range multi.Sizes {
		single := multi
		single.Sizes, single.K = nil, k
		rv, err := refMgr.Submit(single)
		if err != nil {
			t.Fatal(err)
		}
		rv = waitDone(t, refMgr, rv.ID)
		sameJobResult(t, "independent run", v.Results[k], rv.Result)

		// The same single-size spec against the multi manager is a warm hit
		// served by the fan-out entry.
		hv, err := mgr.Submit(single)
		if err != nil {
			t.Fatal(err)
		}
		if !hv.Cached || hv.State != StateDone {
			t.Fatalf("single-size re-ask of covered k=%d: %+v, want instant cache hit", k, hv)
		}
		sameJobResult(t, "fan-out entry", hv.Result, rv.Result)
	}

	// An identical multi-size re-ask reassembles from the same entries —
	// order-insensitively — without a second run.
	again, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{5, 4, 3}, D: 2, CSS: true, Steps: 4000, Walkers: 2, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != StateDone || len(again.Results) != 3 {
		t.Fatalf("multi re-ask: %+v, want reassembled cache hit", again)
	}
	if st := mgr.Stats(); st.Runs != 1 {
		t.Fatalf("stats after re-asks: %+v, want still exactly 1 run", st)
	}
}

// Admission: k and sizes are mutually exclusive, sizes obey the server
// allowlist, the size list is normalized (sorted, deduplicated), and a
// one-size multi spec collapses to the plain single-size job.
func TestMultiSpecAdmission(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 2})
	defer mgr.Close()

	if _, err := mgr.Submit(Spec{Graph: "hk", K: 3, Sizes: []int{4}, D: 2, Steps: 100, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("k+sizes spec admitted: %v", err)
	}
	if _, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{3, 6}, D: 2, Steps: 100, Seed: 1}); err == nil {
		t.Error("out-of-range size admitted")
	}
	if _, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{4, 3}, D: 5, Steps: 100, Seed: 1}); err == nil {
		t.Error("d above min size admitted")
	}

	// One-size multi collapses to the single-size spec: both submissions
	// share one run (the second coalesces or hits the cache).
	a, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{4}, D: 2, Steps: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec.K != 4 || a.Spec.Sizes != nil {
		t.Fatalf("one-size multi did not collapse: %+v", a.Spec)
	}
	b, err := mgr.Submit(Spec{Graph: "hk", K: 4, D: 2, Steps: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached && b.ID != a.ID {
		t.Fatalf("collapsed spec did not share the run: %+v vs %+v", b, a)
	}

	// Normalization: duplicates collapse and order is canonical, so the
	// shuffled duplicate submission coalesces onto the first job.
	c1, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{5, 3, 5, 4}, D: 2, Steps: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.Spec.Sizes; len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("sizes not normalized: %v", got)
	}
	c2, err := mgr.Submit(Spec{Graph: "hk", Sizes: []int{4, 5, 3}, D: 2, Steps: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID != c1.ID && !c2.Cached {
		t.Fatalf("equivalent multi specs did not coalesce: %+v vs %+v", c2, c1)
	}

	// The allowlist gates admission.
	narrow := newTestManager(t, testRegistry(t), Options{Workers: 1, MaxWalkers: 2, MultiSizes: []int{3, 4}})
	defer narrow.Close()
	if _, err := narrow.Submit(Spec{Graph: "hk", Sizes: []int{3, 5}, D: 2, Steps: 100, Seed: 1}); err == nil ||
		!strings.Contains(err.Error(), "allowed sizes") {
		t.Errorf("allowlisted size admitted: %v", err)
	}
	if _, err := narrow.Submit(Spec{Graph: "hk", Sizes: []int{3, 4}, D: 2, Steps: 500, Seed: 1}); err != nil {
		t.Errorf("allowlisted spec rejected: %v", err)
	}
}

// A multi-size submission whose per-size entries were all produced by
// earlier *single-size* runs is answered from the cache by reassembly — the
// two entry populations are interchangeable because the engine's shared-walk
// per-size results are byte-identical to independent runs.
func TestMultiAssembledFromSingleRuns(t *testing.T) {
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 2})
	defer mgr.Close()
	base := Spec{Graph: "hk", D: 2, CSS: true, Steps: 2500, Walkers: 1, Seed: 55}
	for _, k := range []int{3, 4} {
		s := base
		s.K = k
		v, err := mgr.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, mgr, v.ID)
	}
	m := base
	m.Sizes = []int{3, 4}
	v, err := mgr.Submit(m)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.State != StateDone || len(v.Results) != 2 {
		t.Fatalf("multi ask over warm singles: %+v, want reassembled hit", v)
	}
	if st := mgr.Stats(); st.Runs != 2 || st.MultiRuns != 0 {
		t.Fatalf("stats: %+v, want no multi run executed", st)
	}
}
