package service

import (
	"strings"
	"testing"
)

func schedJob(id string, p Priority, steps int) *job {
	return &job{id: id, spec: Spec{Steps: steps, Priority: p}, state: StateQueued}
}

// The weighted-deficit dispatch order: ties break toward the more urgent
// class, and a class's pass advances by cost/weight, so cheap interactive
// jobs overtake expensive background ones while background still gets its
// proportional turn.
func TestSchedulerDispatchOrder(t *testing.T) {
	s := newScheduler(16, nil)
	jobs := []*job{
		schedJob("A", PriorityInteractive, 6400), // +100 per dispatch
		schedJob("B", PriorityInteractive, 6400),
		schedJob("C", PriorityBackground, 50), // +50
		schedJob("D", PriorityBatch, 800),     // +100
	}
	for _, j := range jobs {
		if err := s.enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < len(jobs); i++ {
		j, ok := s.pop()
		if !ok {
			t.Fatal("scheduler empty early")
		}
		got = append(got, j.id)
	}
	// Pass trace: all classes start at 0; rank breaks the tie for A
	// (interactive). Then batch and background tie at 0 and batch outranks:
	// D. Then background (0) precedes interactive (100): C. B last.
	if want := "A,D,C,B"; strings.Join(got, ",") != want {
		t.Fatalf("dispatch order %v, want %s", got, want)
	}
}

// A flood of interactive work does not starve background: the background
// job's pass stays behind the advancing interactive pass, so it is
// dispatched long before the flood drains.
func TestSchedulerNoStarvation(t *testing.T) {
	s := newScheduler(64, nil)
	for i := 0; i < 10; i++ {
		if err := s.enqueue(schedJob("i", PriorityInteractive, 6400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.enqueue(schedJob("bg", PriorityBackground, 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j, ok := s.pop()
		if !ok {
			t.Fatal("scheduler empty early")
		}
		if j.id == "bg" {
			return
		}
	}
	t.Fatal("background job not dispatched within 3 slots of an interactive flood")
}

// The backlog cap rejects over-admission, remove unlinks queued jobs, and
// drain hands back the remainder exactly once.
func TestSchedulerCapRemoveDrain(t *testing.T) {
	s := newScheduler(2, nil)
	a := schedJob("a", PriorityBatch, 100)
	b := schedJob("b", PriorityInteractive, 100)
	if err := s.enqueue(a); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(b); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(schedJob("c", PriorityBatch, 100)); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("over-cap enqueue: %v, want queue-full error", err)
	}
	if !s.remove(a) {
		t.Fatal("remove missed a queued job")
	}
	if s.remove(a) {
		t.Fatal("double remove succeeded")
	}
	if s.size != 1 {
		t.Fatalf("size = %d, want 1", s.size)
	}
	if by := s.depthByClass(); by[string(PriorityInteractive)] != 1 || len(by) != 1 {
		t.Fatalf("depthByClass = %v", by)
	}
	rest := s.drain()
	if len(rest) != 1 || rest[0] != b {
		t.Fatalf("drain returned %v", rest)
	}
	if _, ok := s.pop(); ok {
		t.Fatal("pop succeeded after drain")
	}
}

// Promote moves a queued job between classes so a coalesced interactive
// submitter drags a shared batch job forward.
func TestSchedulerPromote(t *testing.T) {
	s := newScheduler(16, nil)
	slow := schedJob("slow", PriorityBackground, 1000)
	shared := schedJob("shared", PriorityBackground, 1000)
	if err := s.enqueue(slow); err != nil {
		t.Fatal(err)
	}
	if err := s.enqueue(shared); err != nil {
		t.Fatal(err)
	}
	s.promote(shared, PriorityInteractive)
	j, ok := s.pop()
	if !ok || j != shared {
		t.Fatalf("first dispatch = %v, want the promoted job", j)
	}
	if j, ok = s.pop(); !ok || j != slow {
		t.Fatalf("second dispatch = %v, want the background job", j)
	}
}

// Once closed, the manager admits nothing: Submit returns an error, and
// neither the job table nor the journal gains a record.
func TestSubmitAfterClose(t *testing.T) {
	dir := t.TempDir()
	mgr := newTestManager(t, testRegistry(t), Options{Workers: 1, DataDir: dir})
	spec := Spec{Graph: "hk", K: 3, D: 1, Steps: 500, Seed: 1}
	v, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, mgr, v.ID)
	mgr.Close()
	before := len(journalRecords(t, dir))

	spec.Seed = 2
	if _, err := mgr.Submit(spec); err == nil || !strings.Contains(err.Error(), "manager closed") {
		t.Fatalf("submit after Close: %v, want the manager-closed error", err)
	}
	if got := len(mgr.List()); got != 1 {
		t.Errorf("job table holds %d jobs after a refused submit, want 1", got)
	}
	if after := len(journalRecords(t, dir)); after != before {
		t.Errorf("journal holds %d records after a refused submit, %d before", after, before)
	}
}
