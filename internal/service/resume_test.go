package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/graph"
	"repro/internal/service/journal"
)

// crashPoint freezes the walkers that crawl through its clients, the way a
// SIGKILL freezes a real daemon, as soon as a job of the watched manager has
// journaled a checkpoint of at least `steps` windows (progress and the
// checkpoint record are written under one hold of the manager's lock). The
// walkers trip it themselves — they ask on every Degree call — so a job
// cannot run past that checkpoint's stage, let alone finish, however fast a
// step is and however late the test goroutine is scheduled.
type crashPoint struct {
	steps int
	mgr   atomic.Pointer[Manager] // whose progress is watched; stored before the first Submit
	hit   atomic.Bool
	gate  chan struct{} // frozen walkers wait here; closing it aborts them
}

func newCrashPoint(steps int) *crashPoint {
	return &crashPoint{steps: steps, gate: make(chan struct{})}
}

func (c *crashPoint) reached() bool {
	if c.hit.Load() {
		return true
	}
	m := c.mgr.Load()
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.progress.Steps >= c.steps {
			c.hit.Store(true)
			return true
		}
	}
	return false
}

// client wraps g's client so that walks over it freeze at the crash point.
func (c *crashPoint) client(g *graph.Graph) access.Client {
	return stallClient{Client: access.NewGraphClient(g), at: c}
}

// await returns once the walkers have frozen themselves. Nothing moves after
// that, so whatever the caller does next races nothing.
func (c *crashPoint) await(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !c.hit.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never journaled %d steps", id, c.steps)
		}
		if jv, ok := c.mgr.Load().Get(id); !ok || jv.State.terminal() {
			t.Fatalf("job finished before the crash: %+v", jv)
		}
		time.Sleep(time.Millisecond)
	}
}

// stallClient passes calls through until its crash point is reached, then
// blocks the walkers mid-step. A test that must drain the stranded walks
// closes the gate at cleanup: the panic hits the engine's per-walker guard
// and becomes an error, so they stop instead of walking out the budget.
type stallClient struct {
	access.Client
	at *crashPoint
}

func (c stallClient) Degree(v int32) int {
	if c.at.reached() {
		<-c.at.gate
		panic("service test: walk aborted at cleanup")
	}
	return c.Client.Degree(v)
}

// Compaction while a job is mid-run must keep (exactly) its latest
// checkpoint snapshot: terminal traffic from other jobs triggers
// compactions, the log stays bounded, and a crash afterwards still resumes
// the live job mid-budget.
func TestCompactionPreservesResume(t *testing.T) {
	dir := t.TempDir()
	reg1 := testRegistry(t)
	hk, _ := reg1.Get("hk")
	long := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 30000, Walkers: 1, Seed: 555}
	crash := newCrashPoint(long.Steps / 2)
	mgr1 := newTestManager(t, reg1, Options{
		Workers: 2, MaxWalkers: 2, SnapshotEvery: 500, DataDir: dir,
		SegmentBytes: 2048, CompactSegments: 2,
		NewClient: func(g *graph.Graph) access.Client {
			if g == hk {
				return crash.client(g)
			}
			return access.NewGraphClient(g)
		},
	})
	crash.mgr.Store(mgr1)
	v, err := mgr1.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// The long job stays live — frozen mid-stage past 50% — for as long as
	// the filler traffic takes.
	crash.await(t, v.ID)
	// Terminal traffic on the other graph: every finish may trigger a
	// compaction, each of which must carry the live job's snapshot forward.
	for i := 0; i < 6; i++ {
		qv, err := mgr1.Submit(Spec{Graph: "plc", K: 3, D: 1, Steps: 1500, Walkers: 1, Seed: int64(9000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if qv, err = mgr1.Wait(ctx, qv.ID); err != nil || qv.State != StateDone {
			t.Fatalf("filler job: %+v, %v", qv, err)
		}
	}
	mgr1.crashJournal()
	if st := mgr1.Stats(); st.JournalErrors != 0 || st.JournalSegments > 4 {
		t.Fatalf("pre-crash journal state: %+v, want compacted and error-free", st)
	}

	mgr2 := newTestManager(t, testRegistry(t), Options{Workers: 2, MaxWalkers: 2, SnapshotEvery: 500, DataDir: dir})
	defer mgr2.Close()
	if st := mgr2.Stats(); st.ResumableJobs != 1 {
		t.Fatalf("stats after restart: %+v, want the long job resumable", st)
	}
	final, err := mgr2.Wait(ctx, v.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("resumed job: %+v, %v", final, err)
	}
	if final.Progress.ResumedSteps < long.Steps/2 {
		t.Errorf("resumed %d steps after compaction, want >= %d", final.Progress.ResumedSteps, long.Steps/2)
	}
}

// A corrupt (or truncated) snapshot in the journal must degrade to the PR-4
// behavior — re-run from scratch — never fail the job or the recovery.
func TestCorruptSnapshotFallsBackToScratch(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t)
	info, _ := reg.Info("hk")
	spec := Spec{Graph: "hk", K: 3, D: 1, Steps: 2000, Walkers: 1, Seed: 77, Priority: PriorityBatch}

	// Hand-write the journal of an interrupted job whose checkpoint carries
	// garbage where the ensemble snapshot should be, in the record shapes
	// older daemons wrote: a started body and a checkpoint payload version,
	// both of which replay ignores.
	jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := func(typ journal.Type, payload any) {
		t.Helper()
		rec := journal.Record{Type: typ, Job: "j-1"}
		if payload != nil {
			if rec.Payload, err = json.Marshal(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	app(journal.TypeSubmitted, recSubmitted{Spec: spec, GraphMeta: &info})
	app(journal.TypeStarted, map[string]int{"resumed_steps": 500})
	app(journal.TypeCheckpoint, struct {
		V int `json:"v"`
		recCheckpoint
	}{2, recCheckpoint{
		Steps:         1000,
		Concentration: []float64{0.5, 0.5},
		Snapshot:      []byte("definitely not an ensemble state"),
	}})
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 2, DataDir: dir})
	defer mgr.Close()
	if st := mgr.Stats(); st.RecoveredJobs != 1 || st.ResumableJobs != 1 {
		t.Fatalf("stats: %+v, want the corrupt-snapshot job re-queued as resumable", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := mgr.Wait(ctx, "j-1")
	if err != nil || final.State != StateDone {
		t.Fatalf("job with corrupt snapshot: %+v, %v", final, err)
	}
	if final.Progress.ResumedSteps != 0 {
		t.Errorf("resumed_steps %d from a corrupt snapshot, want 0 (scratch re-run)", final.Progress.ResumedSteps)
	}
	if final.Result == nil || final.Result.Steps != spec.Steps {
		t.Errorf("scratch re-run result: %+v", final.Result)
	}
	if st := mgr.Stats(); st.ResumedSteps != 0 {
		t.Errorf("stats resumed_steps %d, want 0", st.ResumedSteps)
	}
}

// A coalescing-driven priority promotion is re-journaled, so a crash does
// not demote the shared job back to its original class on recovery.
func TestPromotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t)
	gate := make(chan struct{}) // never closed: the blocker strands the queue
	mgr1 := newTestManager(t, reg, Options{
		Workers: 1, MaxWalkers: 2, DataDir: dir,
		NewClient: func(g *graph.Graph) access.Client {
			return gatedClient{Client: access.NewGraphClient(g), gate: gate}
		},
	})
	if _, err := mgr1.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Walkers: 1, Seed: 601}); err != nil {
		t.Fatal(err)
	}
	shared, err := mgr1.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Walkers: 1, Seed: 602, Priority: PriorityBackground})
	if err != nil {
		t.Fatal(err)
	}
	boost, err := mgr1.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1000, Walkers: 1, Seed: 602, Priority: PriorityInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if boost.ID != shared.ID || boost.Spec.Priority != PriorityInteractive {
		t.Fatalf("promotion did not happen: %+v", boost)
	}
	mgr1.crashJournal()
	// Crash (no Close), restart: the shared job re-queues at its promoted
	// class, not the background class of its first submitted record.
	mgr2 := newTestManager(t, testRegistry(t), Options{Workers: 1, MaxWalkers: 2, DataDir: dir})
	defer mgr2.Close()
	got, ok := mgr2.Get(shared.ID)
	if !ok || got.Spec.Priority != PriorityInteractive {
		t.Fatalf("job after restart: %+v (ok=%v), want interactive priority", got, ok)
	}
}

// The recovery double-charge fix: a resumed job charges its class only the
// remaining budget, not the full budget a second time.
func TestResumeChargesRemainingBudget(t *testing.T) {
	fresh := &job{spec: Spec{Steps: 10000}}
	if got := jobCost(fresh); got != 10000 {
		t.Errorf("fresh job cost %v, want 10000", got)
	}
	resumed := &job{spec: Spec{Steps: 10000}, resumeSteps: 9000}
	if got := jobCost(resumed); got != 1000 {
		t.Errorf("resumed job cost %v, want the remaining 1000", got)
	}
	// A snapshot at (or somehow past) the full budget still charges a
	// positive epsilon, keeping the virtual clock monotone.
	edge := &job{spec: Spec{Steps: 10000}, resumeSteps: 10000}
	if got := jobCost(edge); got != 1 {
		t.Errorf("fully-resumed job cost %v, want 1", got)
	}
}

// Async appends preserve transition order: after a burst of concurrent
// submissions and completions, every job's journal records appear in
// lifecycle order (submitted before started before terminal).
func TestAsyncJournalPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t)
	mgr := newTestManager(t, reg, Options{Workers: 4, MaxWalkers: 2, DataDir: dir, Fsync: true})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 12; i++ {
		v, err := mgr.Submit(Spec{Graph: "hk", K: 3, D: 1, Steps: 1200, Walkers: 1, Seed: int64(3000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v, err := mgr.Wait(ctx, id); err != nil || v.State != StateDone {
			t.Fatalf("job %s: %+v, %v", id, v, err)
		}
	}
	mgr.Close()

	jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	phase := map[string]int{} // 0 none, 1 submitted, 2 started/checkpoint, 3 terminal
	err = jnl.Replay(func(rec journal.Record) error {
		p := phase[rec.Job]
		switch rec.Type {
		case journal.TypeSubmitted:
			if p != 0 {
				t.Errorf("job %s: submitted after phase %d", rec.Job, p)
			}
			phase[rec.Job] = 1
		case journal.TypeStarted:
			if p != 1 {
				t.Errorf("job %s: started at phase %d", rec.Job, p)
			}
			phase[rec.Job] = 2
		case journal.TypeCheckpoint:
			if p != 2 {
				t.Errorf("job %s: checkpoint at phase %d", rec.Job, p)
			}
		case journal.TypeDone, journal.TypeFailed, journal.TypeCanceled:
			if p != 2 && p != 1 {
				t.Errorf("job %s: terminal at phase %d", rec.Job, p)
			}
			phase[rec.Job] = 3
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phase) != len(ids) {
		t.Fatalf("journal holds %d jobs, want %d", len(phase), len(ids))
	}
	for id, p := range phase {
		if p != 3 {
			t.Errorf("job %s ended the log at phase %d, want terminal", id, p)
		}
	}
}

// TestLegacyJournalFixture pins the ROADMAP invariant "on-disk journal
// readers keep reading old files" end to end. testdata/journal-v1 is a
// journal written by the Manager of the last build that had two engines and
// two state codecs (see the README there): two finished jobs, and a k4/d2/css
// job and a sizes [3,4,5] job frozen mid-run after at least two checkpoints,
// whose snapshots are a GEST version 1 and a GMST version 1 blob. Today's
// manager must warm its cache from the done records, resume both frozen jobs
// from those blobs, and finish them bit-equal to runs from scratch.
func TestLegacyJournalFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "journal-v1"))); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2, MaxWalkers: 2, SnapshotEvery: 500}
	scratch := newTestManager(t, testRegistry(t), opts)
	defer scratch.Close()
	opts.DataDir = dir
	mgr := newTestManager(t, testRegistry(t), opts)
	defer mgr.Close()
	if st := mgr.Stats(); st.RecoveredJobs != 2 || st.ResumableJobs != 2 || st.WarmedResults != 2 {
		t.Fatalf("stats after replay: %+v, want 2 recovered, 2 resumable, 2 warmed", st)
	}

	for _, id := range []string{"j-1", "j-2", "j-3", "j-4"} {
		got := waitDone(t, mgr, id)
		// Finished before the freeze (replayed from their done records) or
		// frozen mid-run (resumed from their last checkpoint).
		if frozen := id == "j-3" || id == "j-4"; frozen != (got.Progress.ResumedSteps > 0) {
			t.Errorf("%s: resumed_steps %d", id, got.Progress.ResumedSteps)
		}
		ref, err := scratch.Submit(got.Spec)
		if err != nil {
			t.Fatal(err)
		}
		ref = waitDone(t, scratch, ref.ID)
		if got.Spec.multi() {
			if got.Result != nil || len(got.Results) != len(got.Spec.Sizes) {
				t.Fatalf("%s: results %+v / %+v, want one per size", id, got.Result, got.Results)
			}
			for _, k := range got.Spec.Sizes {
				sameJobResult(t, id, got.Results[k], ref.Results[k])
			}
		} else {
			if got.Results != nil {
				t.Fatalf("%s: single-size job rendered results %+v", id, got.Results)
			}
			sameJobResult(t, id, got.Result, ref.Result)
		}
	}
	// The warmed entries answer: the finished sizes [3,4] job covers k=4.
	hit, err := mgr.Submit(Spec{Graph: "hk", K: 4, D: 2, Steps: 1000, Walkers: 2, Seed: 8})
	if err != nil || !hit.Cached {
		t.Errorf("single-size ask covered by the journaled fan-out: %+v, %v, want a warm hit", hit, err)
	}
}
