package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/service/journal"
)

// TestCheckpointChainFence restarts a checkpointed job from every state a
// crash can leave its journal in and checks that each restart finishes with
// the uninterrupted run's result bytes, by the outcome the journal it saw
// calls for: resumed at the last checkpoint target the journal holds (the
// final resumed_steps equal to that target, only the rest walked), from
// scratch when it holds none, or already done when it holds the done record.
// The job has 40 checkpoint targets, so the records of one run span several
// full-record intervals of the journal's checkpoint chain.
//
// The crash states are every record boundary of the job's journal and a torn
// tail inside each checkpoint record; the same boundaries of a journal whose
// segments rotate every 2 KiB, so that chains span segments; and a job frozen
// mid-chain under a journal that compacts as it runs, restarted from the
// compacted journal and from the log a crash mid-compaction leaves (the old
// records followed by the compacted copies).
func TestCheckpointChainFence(t *testing.T) {
	const budget, every = 6000, 150
	spec := Spec{Graph: "hk", Sizes: []int{3, 4, 5}, D: 2, CSS: true, Steps: budget, Walkers: 2, Seed: 515}
	reg := testRegistry(t)
	rotating := journal.Options{SegmentBytes: 2048}

	// reference runs the job uninterrupted and returns its view and its
	// journal's records.
	reference := func(t *testing.T, segBytes int64) (JobView, []journal.Record) {
		t.Helper()
		dir := t.TempDir()
		mgr := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: dir, SegmentBytes: segBytes, CompactSegments: 1 << 20})
		want := runToResult(t, mgr, spec)
		mgr.Close()
		if want.State != StateDone {
			t.Fatalf("reference run: %s (%s)", want.State, want.Error)
		}
		if n := len(journaledCheckpoints(t, dir, want.ID)); n != budget/every {
			t.Fatalf("reference journal holds %d checkpoints, want %d", n, budget/every)
		}
		return want, journalRecords(t, dir)
	}

	// restart opens a fresh manager on dir under a deadline and checks the
	// job's outcome against the uninterrupted run.
	restart := func(t *testing.T, dir string, want JobView) {
		t.Helper()
		var recs []journal.Record
		for _, rec := range journalRecords(t, dir) {
			if rec.Job == want.ID {
				recs = append(recs, rec)
			}
		}
		done := slices.ContainsFunc(recs, func(rec journal.Record) bool { return rec.Type == journal.TypeDone })
		from := 0
		if ckpts := journaledCheckpoints(t, dir, want.ID); len(ckpts) > 0 {
			from = ckpts[len(ckpts)-1].Steps
		}

		mgr := newTestManager(t, reg, Options{SnapshotEvery: every, DataDir: dir})
		defer mgr.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		got, err := mgr.Wait(ctx, want.ID)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		if got.State != StateDone {
			t.Fatalf("restarted job: %s (%s)", got.State, got.Error)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("result differs from the uninterrupted run:\n got %+v\nwant %+v", got.Results, want.Results)
		}
		st := mgr.Stats()
		walked := mgr.met.walkSteps.Value()
		switch {
		case done:
			if st.Runs != 0 || walked != 0 {
				t.Errorf("a journaled done job ran again: %d runs, %d steps", st.Runs, walked)
			}
		case from > 0:
			if st.ResumableJobs != 1 || got.Progress.ResumedSteps != from || walked != int64(budget-from) {
				t.Errorf("resume at %d: %d resumable, resumed_steps %d, walked %d; want 1, %d, %d",
					from, st.ResumableJobs, got.Progress.ResumedSteps, walked, from, budget-from)
			}
		default:
			if st.ResumableJobs != 0 || got.Progress.ResumedSteps != 0 || walked != budget {
				t.Errorf("scratch run: %d resumable, resumed_steps %d, walked %d; want 0, 0, %d",
					st.ResumableJobs, got.Progress.ResumedSteps, walked, budget)
			}
		}
	}

	// outcome names what a journal of recs calls for.
	outcome := func(recs []journal.Record) string {
		from := 0
		for _, rec := range recs {
			switch rec.Type {
			case journal.TypeDone:
				return "done"
			case journal.TypeCheckpoint:
				from++
			}
		}
		if from == 0 {
			return "scratch"
		}
		return fmt.Sprintf("resume-at-%d", from*every)
	}

	// boundaries restarts the job from every record boundary of recs past
	// the submitted record and, with torn, from a torn tail inside every
	// checkpoint record.
	boundaries := func(t *testing.T, want JobView, recs []journal.Record, opts journal.Options, torn bool) {
		for i := 1; i <= len(recs); i++ {
			t.Run(fmt.Sprintf("records-%d/%s", i, outcome(recs[:i])), func(t *testing.T) {
				dir := t.TempDir()
				writeJournalWith(t, dir, opts, recs[:i])
				restart(t, dir, want)
			})
			if !torn || i == len(recs) || recs[i].Type != journal.TypeCheckpoint {
				continue
			}
			t.Run(fmt.Sprintf("torn-%d/%s", i, outcome(recs[:i])), func(t *testing.T) {
				dir := t.TempDir()
				writeJournalWith(t, dir, opts, recs[:i+1])
				tearTail(t, dir, len(recs[i].Payload)/2+1)
				restart(t, dir, want)
			})
		}
	}

	t.Run("one-segment", func(t *testing.T) {
		want, recs := reference(t, 0)
		boundaries(t, want, recs, journal.Options{}, true)
	})

	t.Run("rotating", func(t *testing.T) {
		want, recs := reference(t, rotating.SegmentBytes)
		dir := t.TempDir()
		writeJournalWith(t, dir, rotating, recs)
		if segs := len(segmentFiles(t, dir)); segs < 4 {
			t.Fatalf("the journal spans %d segments, want chains across rotations", segs)
		}
		boundaries(t, want, recs, rotating, false)
	})

	t.Run("compacting", func(t *testing.T) {
		want, full := reference(t, 0)
		// Frozen right after the checkpoint at 21 targets: mid-chain, with
		// the journal compacting at every rotation on the way there.
		dir := t.TempDir()
		crash := newCrashPoint(21 * every)
		t.Cleanup(func() { close(crash.gate) })
		mgr := newTestManager(t, reg, Options{
			SnapshotEvery: every, DataDir: dir, NewClient: crash.client,
			SegmentBytes: rotating.SegmentBytes, CompactSegments: 2,
		})
		crash.mgr.Store(mgr)
		v, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		crash.await(t, v.ID)
		mgr.crashJournal()
		if st := mgr.Stats(); st.JournalErrors != 0 || st.JournalSegments > 3 {
			t.Fatalf("pre-crash journal state: %+v, want compacted and error-free", st)
		}
		if mgr.met.journal.Compactions.Value() == 0 {
			t.Fatal("the journal never compacted on the way to the crash")
		}
		// The walkers freeze at their first step past that checkpoint, but
		// states they handed out before it (up to the engine's checkpoint
		// lead of 4 targets ahead) are still journaled: the last record
		// stands 21 to 25 targets in, between the full records of the 17th
		// and the 33rd targets.
		ckpts := journaledCheckpoints(t, dir, v.ID)
		if n := len(ckpts); n == 0 || ckpts[n-1].Steps < 21*every || ckpts[n-1].Steps > 25*every {
			t.Fatalf("the compacted journal holds %d checkpoints, the last at %+v; want it 21 to 25 targets in", n, ckpts[max(n-1, 0):])
		}
		compacted := journalRecords(t, dir)

		t.Run("compacted", func(t *testing.T) {
			restart(t, copyJournal(t, dir), want)
		})
		// A crash between a compaction's rename and its removals leaves the
		// old records in front of the copies: here the uncompacted journal of
		// the same point, 21 checkpoints and all.
		t.Run("old-then-copies", func(t *testing.T) {
			cut := 0
			for n := 0; n < 21; cut++ {
				if full[cut].Type == journal.TypeCheckpoint {
					n++
				}
			}
			crashed := t.TempDir()
			writeJournalWith(t, crashed, journal.Options{}, append(slices.Clone(full[:cut]), compacted...))
			restart(t, crashed, want)
		})
	})
}

// writeJournalWith writes recs as the journal of a manager with data dir
// dir, through a journal opened with opts.
func writeJournalWith(t *testing.T, dir string, opts journal.Options, recs []journal.Record) {
	t.Helper()
	jnl, err := journal.Open(filepath.Join(dir, "journal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles lists the journal segments under data dir dir, in order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(segs)
	return segs
}

// tearTail cuts the last n bytes off the journal's active segment: a torn
// append.
func tearTail(t *testing.T, dir string, n int) {
	t.Helper()
	segs := segmentFiles(t, dir)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-int64(n)); err != nil {
		t.Fatal(err)
	}
}

// copyJournal copies the journal under data dir dir into a fresh data dir.
func copyJournal(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(filepath.Join(dst, "journal"), os.DirFS(filepath.Join(dir, "journal"))); err != nil {
		t.Fatal(err)
	}
	return dst
}
