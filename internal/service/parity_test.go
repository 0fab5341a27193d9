package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service/journal"
)

// journalRecords replays the journal under dir (whose manager must have
// stopped writing).
func journalRecords(t *testing.T, dir string) []journal.Record {
	t.Helper()
	jnl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	var recs []journal.Record
	if err := jnl.Replay(func(rec journal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkpointOf reads a checkpoint record's payload: an older daemon's JSON
// record as it stands, a current one — the job's ensemble state, whole or as
// a delta against the job's record before — as its step count and payload
// bytes. chain is the job's checkpoint chain up to that record before (its
// last full record and the deltas since), which the record extends; the
// extended chain is folded for the step count.
func checkpointOf(t *testing.T, chain *[][]byte, payload []byte) recCheckpoint {
	t.Helper()
	if p, ok := legacyCheckpoint(payload); ok {
		return p
	}
	if core.IsCheckpointDelta(payload) {
		*chain = append(*chain, payload)
	} else {
		*chain = [][]byte{payload}
	}
	st, err := foldCheckpoints(*chain)
	if err != nil {
		t.Fatal(err)
	}
	return recCheckpoint{Steps: st.WindowsDone, Snapshot: payload}
}

// journaledCheckpoints returns every checkpoint record the journal under dir
// holds for the job, in log order.
func journaledCheckpoints(t *testing.T, dir, id string) []recCheckpoint {
	t.Helper()
	var out []recCheckpoint
	var chain [][]byte
	for _, rec := range journalRecords(t, dir) {
		if rec.Type == journal.TypeCheckpoint && rec.Job == id {
			out = append(out, checkpointOf(t, &chain, rec.Payload))
		}
	}
	return out
}

// journalPrefix copies the journal under src into a fresh data dir up to and
// including the first checkpoint record of `steps` windows — what a kill -9
// right after that append leaves on disk: no later checkpoint, no terminal
// record.
func journalPrefix(t *testing.T, src string, steps int) string {
	t.Helper()
	dst := t.TempDir()
	jnl, err := journal.Open(filepath.Join(dst, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chains := make(map[string]*[][]byte)
	for _, rec := range journalRecords(t, src) {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != journal.TypeCheckpoint {
			continue
		}
		if chains[rec.Job] == nil {
			chains[rec.Job] = new([][]byte)
		}
		if checkpointOf(t, chains[rec.Job], rec.Payload).Steps == steps {
			break
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestJobParity is the table for the one execution path: wherever a job's
// walkers run and wherever the run is cut, it finishes with the result bytes
// of an uninterrupted local run, leaves the same checkpoint records in the
// journal (count, steps, snapshot bytes), and accounts resumed and walked
// steps exactly.
//
//	spec:         k4/d2/css W=4 · sizes 3,4,5 W=2 · k4/d1 W=1
//	execution:    local (one partition, in process) · nodes: 2 on two workers ·
//	              nodes: 2 with the first stream of partition 0 killed after
//	              two frames
//	interruption: none · killed right after journaling a mid-run checkpoint,
//	              then restarted with and without the fleet · killed between
//	              the last checkpoint record and done, so the snapshot stands
//	              at the full budget and no barrier is left to run
//
// An interrupted run is the journal prefix the kill leaves behind — the
// journal is the only store, so that is all a restart can see. What a live
// fleet does while its coordinator dies is TestDistributedCoordinatorRecovery's
// (and its WithFleet sibling's) subject.
func TestJobParity(t *testing.T) {
	const budget, every, cutAt = 6000, 500, 3000
	specs := []struct {
		name string
		spec Spec
	}{
		{"k4d2css", Spec{Graph: "hk", K: 4, D: 2, CSS: true, Steps: budget, Walkers: 4, Seed: 1234}},
		{"sizes345", Spec{Graph: "hk", Sizes: []int{3, 4, 5}, D: 2, CSS: true, Steps: budget, Walkers: 2, Seed: 4321}},
		{"k4d1", Spec{Graph: "hk", K: 4, D: 1, Steps: budget, Walkers: 1, Seed: 77}},
	}
	execs := []struct {
		name  string
		nodes int
		kill  bool
	}{
		{"local", 0, false},
		{"nodes2", 2, false},
		{"nodes2-kill", 2, true},
	}
	reg := testRegistry(t)

	// fleet brings up the two workers of an execution (none for local); with
	// kill, the first peer aborts its first partition stream after two frames.
	fleet := func(t *testing.T, nodes int, kill bool) []string {
		if nodes < 2 {
			return nil
		}
		if !kill {
			return startWorkerNodes(t, reg, 2, nil)
		}
		wmgr := newTestManager(t, reg, Options{})
		t.Cleanup(wmgr.Close)
		killSrv := httptest.NewServer(&killOnceWorker{mgr: wmgr})
		t.Cleanup(killSrv.Close)
		return []string{killSrv.URL, startWorkerNodes(t, reg, 1, nil)[0]}
	}

	for _, sc := range specs {
		// The referee: an uninterrupted local run, journaled.
		refDir := t.TempDir()
		refMgr := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: refDir})
		want := runToResult(t, refMgr, sc.spec)
		refMgr.Close()
		if want.State != StateDone {
			t.Fatalf("%s: reference run: %s (%s)", sc.name, want.State, want.Error)
		}
		wantCkpts := journaledCheckpoints(t, refDir, want.ID)
		if len(wantCkpts) != budget/every {
			t.Fatalf("%s: reference journal holds %d checkpoints, want one per barrier (%d)", sc.name, len(wantCkpts), budget/every)
		}

		for _, ex := range execs {
			spec := sc.spec
			spec.Nodes = ex.nodes
			// share0 is the part of the first `total` windows that belongs to
			// partition 0, the one whose first stream the killer aborts.
			parts := min(max(ex.nodes, 1), spec.Walkers)
			share0 := func(total int) int {
				return core.PartitionWindows(total, spec.Walkers, 0, spec.Walkers/parts)
			}

			// finish runs the spec — or, when dir already holds the job, resumes
			// it from the `from` windows its journal ends at — on a manager with
			// the given peers, and checks everything the table promises.
			finish := func(t *testing.T, dir string, peers []string, from int) {
				t.Helper()
				mgr := newTestManager(t, reg, Options{
					SnapshotEvery: every, DataDir: dir, Peers: peers, DistBackoff: time.Millisecond,
				})
				defer mgr.Close()
				var got JobView
				if from == 0 {
					got = runToResult(t, mgr, spec)
				} else {
					if st := mgr.Stats(); st.RecoveredJobs != 1 || st.ResumableJobs != 1 {
						t.Fatalf("stats after restart: %+v, want 1 recovered / 1 resumable", st)
					}
					got = waitDone(t, mgr, want.ID)
				}
				if got.State != StateDone {
					t.Fatalf("job: %s (%s)", got.State, got.Error)
				}
				if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Results, want.Results) {
					t.Errorf("result differs from the uninterrupted local run:\n got %+v %+v\nwant %+v %+v",
						got.Result, got.Results, want.Result, want.Results)
				}
				// Every partition credits what its completing attempt restored:
				// all of them their share of `from`, and a killed partition 0
				// its share of the two frames it streamed past that (the killer
				// never fires when one of those already was the partition's last).
				wantResumed := from
				if past := from + 2*every; ex.kill && peers != nil && past < budget {
					wantResumed += share0(past) - share0(from)
				}
				if got.Progress.ResumedSteps != wantResumed {
					t.Errorf("progress.resumed_steps %d, want %d", got.Progress.ResumedSteps, wantResumed)
				}
				if st := mgr.Stats(); st.ResumedSteps != int64(wantResumed) {
					t.Errorf("stats resumed_steps %d, want %d", st.ResumedSteps, wantResumed)
				}
				if walked := mgr.met.walkSteps.Value(); walked != int64(budget-from) {
					t.Errorf("graphletd_walk_steps_total moved by %d, want budget - resumed-from = %d", walked, budget-from)
				}
				if peers == nil {
					// In process: the fleet's series are not the job's to move.
					var text bytes.Buffer
					if err := mgr.met.reg.WriteText(&text); err != nil {
						t.Fatal(err)
					}
					for _, series := range []string{"graphletd_partitions_total{", "graphletd_peer_healthy{"} {
						if strings.Contains(text.String(), series) {
							t.Errorf("a job without a fleet moved %s…}", series)
						}
					}
					if d, s := mgr.met.dist.DispatchSeconds.Snapshot().Count, mgr.met.dist.StreamSeconds.Snapshot().Count; d != 0 || s != 0 {
						t.Errorf("a job without a fleet observed %d dispatch / %d stream latencies", d, s)
					}
				}
				mgr.Close()
				// The journal holds only what replay reads: no started body
				// and no checkpoint payload version.
				for _, rec := range journalRecords(t, dir) {
					if rec.Type == journal.TypeStarted && len(rec.Payload) > 0 ||
						rec.Type == journal.TypeCheckpoint && bytes.Contains(rec.Payload, []byte(`"v":`)) {
						t.Errorf("%s record carries a field replay never reads: %.60s", rec.Type, rec.Payload)
					}
				}
				if ckpts := journaledCheckpoints(t, dir, got.ID); !reflect.DeepEqual(ckpts, wantCkpts) {
					t.Errorf("journal holds %d checkpoint records that differ from the local run's %d (steps, concentrations or snapshot bytes)",
						len(ckpts), len(wantCkpts))
				}
				if from == 0 {
					return
				}
				// The resumed completion re-warms the cache: a restart of the
				// restarted daemon answers every covered single-size spec from
				// the journal without a run.
				again := newTestManager(t, reg, Options{DataDir: dir})
				defer again.Close()
				for _, k := range spec.sizes() {
					hv, err := again.Submit(sc.spec.sizeSpec(k))
					if err != nil {
						t.Fatal(err)
					}
					if !hv.Cached || hv.State != StateDone {
						t.Fatalf("k=%d after the second restart: %+v, want a warm hit", k, hv)
					}
					ref := want.Result
					if sc.spec.multi() {
						ref = want.Results[k]
					}
					sameJobResult(t, "journal-warmed entry", hv.Result, ref)
				}
			}

			t.Run(sc.name+"/"+ex.name, func(t *testing.T) {
				ran := t.TempDir()
				finish(t, ran, fleet(t, ex.nodes, ex.kill), 0)
				if t.Failed() {
					return // the rows below cut this run's journal
				}
				for _, from := range []int{cutAt, budget} {
					t.Run(fmt.Sprintf("killed-at-%d", from), func(t *testing.T) {
						finish(t, journalPrefix(t, ran, from), fleet(t, ex.nodes, ex.kill), from)
					})
					if ex.nodes > 1 && !ex.kill {
						t.Run(fmt.Sprintf("killed-at-%d-no-fleet", from), func(t *testing.T) {
							finish(t, journalPrefix(t, ran, from), nil, from)
						})
					}
				}
			})
		}
	}
}
