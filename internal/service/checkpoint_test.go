package service

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/service/journal"
)

// holdClient blocks every Degree call until release, and closes held the
// first time a walker blocks. A resumed job that is held has been dispatched,
// has folded its checkpoint chain and has walked nothing past it, so its
// progress is still the one replay derived, with the restored windows as its
// resumed-step figure.
type holdClient struct {
	gate, held chan struct{}
	heldOnce   sync.Once
	openOnce   sync.Once
}

func newHoldClient() *holdClient {
	return &holdClient{gate: make(chan struct{}), held: make(chan struct{})}
}

func (h *holdClient) client(g *graph.Graph) access.Client {
	return heldClient{Client: access.NewGraphClient(g), h: h}
}

// await returns once a walker is held.
func (h *holdClient) await(t *testing.T) {
	t.Helper()
	select {
	case <-h.held:
	case <-time.After(60 * time.Second):
		t.Fatal("the resumed job never reached its walk")
	}
}

// release lets every held walker go; safe to call twice.
func (h *holdClient) release() { h.openOnce.Do(func() { close(h.gate) }) }

type heldClient struct {
	access.Client
	h *holdClient
}

func (c heldClient) Degree(v int32) int {
	c.h.heldOnce.Do(func() { close(c.h.held) })
	<-c.h.gate
	return c.Client.Degree(v)
}

// legacyCheckpointPayload renders a snapshot record as the JSON checkpoint
// record older daemons wrote for it: steps, the concentrations in the shape
// the spec calls for, and the snapshot in base64.
func legacyCheckpointPayload(t *testing.T, spec Spec, snap []byte) []byte {
	t.Helper()
	st, err := core.DecodeEnsembleState(snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.MergedResult()
	if err != nil {
		t.Fatal(err)
	}
	p := recCheckpoint{Steps: st.WindowsDone, Snapshot: snap}
	p.Concentration, p.Concentrations = spec.shape(res.Concentrations())
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// A checkpoint record is the encoded ensemble snapshot and nothing else: the
// record adds zero bytes to the state it carries. The job's first record is
// the full snapshot, byte for byte, and each record after it (the budget
// spans fewer than 16 targets) a delta against the record before, which
// folds to the state at its own target.
func TestCheckpointPayloadIsSnapshot(t *testing.T) {
	const budget, every = 3000, 500
	dir := t.TempDir()
	mgr := newTestManager(t, testRegistry(t), Options{SnapshotEvery: every, DataDir: dir})
	v := runToResult(t, mgr, Spec{Graph: "hk", Sizes: []int{3, 4, 5}, D: 2, CSS: true, Steps: budget, Walkers: 2, Seed: 4321})
	mgr.Close()
	if v.State != StateDone {
		t.Fatalf("job: %s (%s)", v.State, v.Error)
	}
	n := 0
	var st *core.EnsembleState
	for _, rec := range journalRecords(t, dir) {
		if rec.Type != journal.TypeCheckpoint {
			continue
		}
		n++
		if delta := core.IsCheckpointDelta(rec.Payload); delta != (n > 1) {
			t.Fatalf("checkpoint %d: delta %v", n, delta)
		}
		var err error
		if n == 1 {
			st, err = core.DecodeEnsembleState(rec.Payload)
		} else {
			st, err = core.ApplyCheckpointDelta(st, rec.Payload)
		}
		if err != nil {
			t.Fatalf("checkpoint %d: %v", n, err)
		}
		if enc := st.Encode(); n == 1 && !bytes.Equal(rec.Payload, enc) {
			t.Errorf("checkpoint %d: payload of %d bytes, want exactly the %d-byte snapshot", n, len(rec.Payload), len(enc))
		}
		if st.WindowsDone != n*every {
			t.Errorf("checkpoint %d stands at %d windows, want %d", n, st.WindowsDone, n*every)
		}
	}
	if n != budget/every {
		t.Errorf("journal holds %d checkpoint records, want %d", n, budget/every)
	}
}

// TestReplayedProgress: the progress a job shows after a restart is the one
// it showed before, re-derived from its latest snapshot record — for a job
// interrupted mid-run, for one canceled mid-run, and for a journal an upgrade
// left mid-job (an older daemon's JSON checkpoint, then a snapshot record),
// which resumes from the snapshot record and finishes bit-identical to an
// uninterrupted run, or from scratch when that record does not decode.
func TestReplayedProgress(t *testing.T) {
	const every = 500
	reg := testRegistry(t)

	// restartHeld reopens dir with the job's walkers held at their first step
	// and returns the job's progress as replay left it; the caller releases
	// the hold.
	restartHeld := func(t *testing.T, dir, id string) (*Manager, *holdClient, Progress) {
		t.Helper()
		hold := newHoldClient()
		mgr := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: dir, NewClient: hold.client})
		t.Cleanup(mgr.Close)
		t.Cleanup(hold.release) // before Close: held walkers cannot see a cancel
		if st := mgr.Stats(); st.RecoveredJobs != 1 || st.ResumableJobs != 1 {
			t.Fatalf("stats after restart: %+v, want 1 recovered / 1 resumable", st)
		}
		hold.await(t)
		v, _ := mgr.Get(id)
		return mgr, hold, v.Progress
	}

	t.Run("interrupted", func(t *testing.T) {
		spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 30000, Walkers: 2, Seed: 901}
		dir := t.TempDir()
		crash := newCrashPoint(5000)
		t.Cleanup(func() { close(crash.gate) })
		mgr1 := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: dir, NewClient: crash.client})
		crash.mgr.Store(mgr1)
		v, err := mgr1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		crash.await(t, v.ID)
		pre, _ := mgr1.Get(v.ID)
		// Killed: what is queued reaches the journal, nothing after it does.
		mgr1.crashJournal()

		// Dispatched, the resumed run shows the windows it restored.
		want := pre.Progress
		want.ResumedSteps = want.Steps
		mgr2, hold, got := restartHeld(t, dir, v.ID)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replayed progress %+v, want the pre-restart %+v", got, want)
		}
		hold.release()
		final := waitDone(t, mgr2, v.ID)
		if final.State != StateDone || final.Progress.ResumedSteps != pre.Progress.Steps {
			t.Errorf("resumed job: %s, resumed %d steps, want done from %d", final.State, final.Progress.ResumedSteps, pre.Progress.Steps)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		spec := Spec{Graph: "hk", Sizes: []int{3, 4, 5}, D: 2, CSS: true, Steps: 5_000_000, Walkers: 2, Seed: 902}
		dir := t.TempDir()
		mgr1 := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: dir})
		v, err := mgr1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
			if cur, _ := mgr1.Get(v.ID); cur.Progress.Steps >= 3*every {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job never reached its third checkpoint")
			}
		}
		if _, err := mgr1.Cancel(v.ID); err != nil {
			t.Fatal(err)
		}
		pre, err := mgr1.Wait(t.Context(), v.ID)
		if err != nil {
			t.Fatal(err)
		}
		mgr1.Close()
		if pre.State != StateCanceled || pre.Progress.Steps < 3*every || len(pre.Progress.Concentrations) != 3 {
			t.Fatalf("canceled job: %s, progress %+v", pre.State, pre.Progress)
		}

		mgr2 := newTestManager(t, reg, Options{DataDir: dir})
		defer mgr2.Close()
		got, _ := mgr2.Get(v.ID)
		if got.State != StateCanceled {
			t.Fatalf("after restart: %s, want canceled", got.State)
		}
		if !reflect.DeepEqual(got.Progress, pre.Progress) {
			t.Errorf("replayed progress %+v, want the pre-restart %+v", got.Progress, pre.Progress)
		}
	})

	t.Run("legacy-then-snapshot", func(t *testing.T) {
		spec := Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 6000, Walkers: 2, Seed: 903}
		// The referee runs uninterrupted and journaled; its event stream
		// records the progress it showed at each checkpoint.
		refDir := t.TempDir()
		gate := make(chan struct{})
		ref := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: refDir,
			NewClient: func(g *graph.Graph) access.Client {
				return gatedClient{Client: access.NewGraphClient(g), gate: gate}
			}})
		v, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		events, _, err := ref.Subscribe(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		close(gate)
		var pre Progress
		for ev := range events {
			if ev.Type == "checkpoint" && ev.Job.Progress.Steps == 2*every {
				pre = ev.Job.Progress
			}
		}
		want := waitDone(t, ref, v.ID)
		ref.Close()
		if want.State != StateDone || pre.Steps != 2*every {
			t.Fatalf("reference run: %s, progress at the second checkpoint %+v", want.State, pre)
		}

		// The journal an upgrade leaves: the first checkpoint as the older
		// daemon's JSON record, the second as the current record — a delta
		// against the snapshot the JSON record carries — (passed through
		// cut), then the kill.
		upgraded := func(cut func([]byte) []byte) string {
			dir := t.TempDir()
			jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ckpts := 0
			for _, rec := range journalRecords(t, refDir) {
				if rec.Type == journal.TypeCheckpoint {
					if ckpts++; ckpts == 1 {
						rec.Payload = legacyCheckpointPayload(t, spec, rec.Payload)
					} else {
						rec.Payload = cut(rec.Payload)
					}
				}
				if err := jnl.Append(rec); err != nil {
					t.Fatal(err)
				}
				if ckpts == 2 {
					break
				}
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			return dir
		}

		mgr, hold, got := restartHeld(t, upgraded(func(b []byte) []byte { return b }), v.ID)
		pre.ResumedSteps = pre.Steps // dispatched, the run shows what it restored
		if !reflect.DeepEqual(got, pre) {
			t.Errorf("replayed progress %+v, want the pre-restart %+v", got, pre)
		}
		hold.release()
		final := waitDone(t, mgr, v.ID)
		if !reflect.DeepEqual(final.Result, want.Result) {
			t.Errorf("resumed result differs from the uninterrupted run:\n got %+v\nwant %+v", final.Result, want.Result)
		}
		if final.Progress.ResumedSteps != 2*every {
			t.Errorf("resumed %d steps, want %d: the snapshot record, not the JSON one before it", final.Progress.ResumedSteps, 2*every)
		}

		// A latest snapshot record that does not decode is not a resume
		// point, and neither is the older JSON record behind it: the job
		// re-runs from scratch, to the same bytes.
		scratch := newTestManager(t, reg, Options{SnapshotEvery: every,
			DataDir: upgraded(func(b []byte) []byte { return b[:len(b)/2] })})
		defer scratch.Close()
		if st := scratch.Stats(); st.RecoveredJobs != 1 || st.ResumableJobs != 0 {
			t.Fatalf("stats after restart: %+v, want 1 recovered / 0 resumable", st)
		}
		final = waitDone(t, scratch, v.ID)
		if !reflect.DeepEqual(final.Result, want.Result) || final.Progress.ResumedSteps != 0 {
			t.Errorf("scratch re-run: resumed %d steps, result %+v; want 0 and %+v", final.Progress.ResumedSteps, final.Result, want.Result)
		}
	})
}

// FuzzReplayCheckpoint replays a journal holding a submitted record, a
// started record, the first lead records of a real checkpoint chain (a full
// record, then deltas) and one checkpoint record with an arbitrary payload:
// an older daemon's JSON record, a full or delta record, or bytes that are
// neither. Replay never panics and never fails: the job comes back
// re-queued — resumable or from scratch — or failed with a message. Besides
// the committed corpus (lead 0), the seeds extend the chain with its next
// delta, with a delta written against another target, with a delta cut
// short, and start one with a delta.
func FuzzReplayCheckpoint(f *testing.F) {
	reg := testRegistry(f)
	info, _ := reg.Info("hk")
	spec := Spec{Graph: "hk", K: 3, D: 1, Steps: 2000, Walkers: 1, Seed: 77, Priority: PriorityBatch}
	submitted, err := json.Marshal(recSubmitted{Spec: spec, GraphMeta: &info})
	if err != nil {
		f.Fatal(err)
	}
	// The chain: the spec's checkpoint records at 500 (full), 1000, 1500 and
	// 2000 windows.
	var chain [][]byte
	{
		dir := f.TempDir()
		mgr, err := NewManager(reg, Options{SnapshotEvery: 500, DataDir: dir})
		if err != nil {
			f.Fatal(err)
		}
		v, err := mgr.Submit(spec)
		if err == nil {
			v, err = mgr.Wait(f.Context(), v.ID)
		}
		mgr.Close()
		if err != nil || v.State != StateDone {
			f.Fatalf("chain run: %+v, %v", v, err)
		}
		jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
		if err != nil {
			f.Fatal(err)
		}
		err = jnl.Replay(func(rec journal.Record) error {
			if rec.Type == journal.TypeCheckpoint {
				chain = append(chain, rec.Payload)
			}
			return nil
		})
		jnl.Close()
		if err != nil || len(chain) != 4 || core.IsCheckpointDelta(chain[0]) || !core.IsCheckpointDelta(chain[1]) {
			f.Fatalf("chain run journaled %d checkpoints (%v)", len(chain), err)
		}
	}
	f.Add(uint8(1), chain[1])
	f.Add(uint8(3), chain[3])
	f.Add(uint8(1), chain[2])
	f.Add(uint8(2), chain[2][:len(chain[2])/2])
	f.Add(uint8(0), chain[1])
	f.Fuzz(func(t *testing.T, lead uint8, payload []byte) {
		dir := t.TempDir()
		recs := []journal.Record{
			{Type: journal.TypeSubmitted, Job: "j-1", Payload: submitted},
			{Type: journal.TypeStarted, Job: "j-1"},
		}
		for _, p := range chain[:int(lead)%(len(chain)+1)] {
			recs = append(recs, journal.Record{Type: journal.TypeCheckpoint, Job: "j-1", Payload: p})
		}
		writeJournal(t, dir, append(recs, journal.Record{Type: journal.TypeCheckpoint, Job: "j-1", Payload: payload}))

		mgr, err := NewManager(reg, Options{Workers: 1, MaxWalkers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		defer mgr.Close()
		v, ok := mgr.Get("j-1")
		if !ok {
			t.Fatal("the job did not come back")
		}
		st := mgr.Stats()
		switch v.State {
		case StateQueued, StateRunning, StateDone: // re-queued; a worker may already run it
			if st.RecoveredJobs != 1 {
				t.Errorf("job %s but %d recovered", v.State, st.RecoveredJobs)
			}
		case StateFailed:
			if v.Error == "" {
				t.Error("job failed without a message")
			}
		default:
			t.Errorf("job came back %s", v.State)
		}
		if st.ResumableJobs > st.RecoveredJobs {
			t.Errorf("%d resumable of %d recovered", st.ResumableJobs, st.RecoveredJobs)
		}
	})
}
