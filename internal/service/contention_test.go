package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// checkQueueInvariant verifies, under m.mu, the invariant the one lock
// buys: a job is in its class queue exactly when its state is queued, and
// the scheduler's size counts the queues.
func checkQueueInvariant(m *Manager) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	queued, n := make(map[*job]bool), 0
	for p, q := range m.sched.queues {
		for _, j := range q {
			if j.state != StateQueued || j.spec.Priority != p || m.jobs[j.id] != j || queued[j] {
				return fmt.Errorf("job %s sits in the %s queue in state %s at priority %s", j.id, p, j.state, j.spec.Priority)
			}
			queued[j] = true
			n++
		}
	}
	if n != m.sched.size {
		return fmt.Errorf("scheduler size %d, queues hold %d", m.sched.size, n)
	}
	for _, j := range m.jobs {
		if j.state == StateQueued && !queued[j] {
			return fmt.Errorf("job %s is queued but in no class queue", j.id)
		}
	}
	return nil
}

// TestManagerContention drives one durable manager from several goroutines
// at once — submissions from a small spec pool at random priorities, so runs
// coalesce, hit the cache and get promoted, and cancellations of random job
// IDs — while a sampler checks the queue invariant under the manager's lock,
// and closes it with jobs still queued and running. Afterwards every job is
// terminal, nothing is queued or in flight, and a fresh manager replaying the
// journal reports the same terminal state and class for every job.
func TestManagerContention(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t)
	opts := Options{Workers: 2, MaxWalkers: 2, DataDir: dir, SnapshotEvery: 100,
		SegmentBytes: 32 << 10, CompactSegments: 2}
	mgr := newTestManager(t, reg, opts)

	pool := []Spec{
		{Graph: "hk", K: 3, D: 1, Steps: 6000, Walkers: 1, Seed: 1},
		{Graph: "hk", K: 3, D: 1, Steps: 8000, Walkers: 2, Seed: 2},
		{Graph: "hk", K: 4, D: 2, CSS: true, Steps: 3000, Walkers: 2, Seed: 3},
		{Graph: "plc", K: 3, D: 1, Steps: 6000, Walkers: 1, Seed: 4},
		{Graph: "plc", K: 4, D: 2, Steps: 4000, Walkers: 2, Seed: 5},
		{Graph: "hk", Sizes: []int{3, 4}, D: 2, Steps: 3000, Walkers: 1, Seed: 6},
	}
	classes := []Priority{PriorityBackground, PriorityBatch, PriorityInteractive}

	sampled := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		var err error
		for n := 0; err == nil; n++ {
			select {
			case <-stop:
				sampled <- nil
				return
			default:
			}
			err = checkQueueInvariant(mgr)
			if n%16 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
		sampled <- err
	}()

	// Each submitter makes at least ops calls, and goes on until the storm
	// has both answered a submission from the cache and coalesced one.
	const submitters, ops = 4, 40
	stormed := func() bool {
		st := mgr.Stats()
		return st.CacheHits > 0 && st.Coalesced > 0
	}
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < ops || !stormed() && time.Now().Before(deadline); i++ {
				if rng.Intn(5) == 0 {
					// Unknown IDs answer an error; known ones cancel.
					_, _ = mgr.Cancel(fmt.Sprintf("j-%d", 1+rng.Intn(g*ops+i+8)))
				} else {
					spec := pool[rng.Intn(len(pool))]
					spec.Priority = classes[rng.Intn(len(classes))]
					if _, err := mgr.Submit(spec); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()

	// Leave work behind for Close: two runs far too long to finish occupy
	// both workers, and a third waits in the queue behind them until an
	// interactive submitter coalesces onto it and promotes it.
	var long []string
	for i := 0; i < 3; i++ {
		v, err := mgr.Submit(Spec{Graph: "plc", K: 4, D: 2, Steps: 50_000_000, Walkers: 1,
			Seed: int64(100 + i), Priority: PriorityBackground})
		if err != nil {
			t.Fatal(err)
		}
		long = append(long, v.ID)
	}
	waitState(t, mgr, long[0], StateRunning)
	waitState(t, mgr, long[1], StateRunning)
	boost, err := mgr.Submit(Spec{Graph: "plc", K: 4, D: 2, Steps: 50_000_000, Walkers: 1,
		Seed: 102, Priority: PriorityInteractive})
	if err != nil || boost.ID != long[2] || boost.Spec.Priority != PriorityInteractive {
		t.Fatalf("boost: %+v, %v, want %s promoted", boost, err, long[2])
	}
	st := mgr.Stats()
	mgr.Close()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if err := checkQueueInvariant(mgr); err != nil {
		t.Fatal(err)
	}
	if !stormed() {
		t.Errorf("the storm did not both hit the cache and coalesce: %+v", st)
	}

	final := make(map[string]JobView)
	for _, v := range mgr.List() {
		if !v.State.terminal() {
			t.Errorf("job %s is %s after Close", v.ID, v.State)
		}
		final[v.ID] = v
	}
	mgr.mu.Lock()
	size, inflight := mgr.sched.size, len(mgr.inflight)
	mgr.mu.Unlock()
	if size != 0 || inflight != 0 {
		t.Errorf("after Close: %d queued, %d in flight, want none", size, inflight)
	}

	// Replay reports every job's terminal state, and the class of every
	// promoted one.
	replayed := newTestManager(t, reg, opts)
	defer replayed.Close()
	views := replayed.List()
	if len(views) != len(final) {
		t.Fatalf("replay holds %d jobs, the closed manager %d", len(views), len(final))
	}
	for _, v := range views {
		if want := final[v.ID]; v.State != want.State || v.Spec.Priority != want.Spec.Priority {
			t.Errorf("job %s replays as %s at %s, closed as %s at %s", v.ID, v.State, v.Spec.Priority, want.State, want.Spec.Priority)
		}
	}
}
