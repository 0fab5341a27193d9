package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/core"
)

// Options configures a coordinated distributed run.
type Options struct {
	// Peers are worker base URLs (e.g. "http://node2:8080"). Partition p's
	// attempt a goes to peer (p+a) mod len(Peers), so partitions spread
	// across the fleet and retries rotate away from a failing node.
	Peers []string

	// Retries is how many remote attempts a partition gets before failing
	// over to local execution (default 3).
	Retries int

	// Backoff is the base delay between a partition's attempts, growing
	// exponentially and jittered by ±50% (default 250ms).
	Backoff time.Duration

	// StallTimeout aborts an attempt when the worker stream produces no
	// frame for this long (default 2m). It must comfortably exceed the
	// expected gap between checkpoint frames.
	StallTimeout time.Duration

	// LocalClient, when set, supplies a crawl client for running a
	// partition on the coordinator itself after remote attempts are
	// exhausted — the last-resort failover that lets a job complete with
	// every peer dead. Nil disables local failover.
	LocalClient func() access.Client

	// Metrics instruments fleet execution; nil disables it, and a run with no
	// Peers records nothing (there is no dispatch, stream or peer to report).
	Metrics *Metrics

	// OnSync fires — serialized, with strictly increasing targets — each
	// time every partition has reached a common checkpoint target, with the
	// combined full-ensemble state at that target (its WindowsDone): the
	// caller's journal checkpoint, and what a restarted coordinator hands
	// back to Run as resume. The state is read-only.
	OnSync func(combined *core.EnsembleState)

	// OnResume fires once per partition that completes after restoring a
	// state, with the number of already-processed windows the restore
	// preserved (the partition's quota share of that state's target).
	// Summing these over partitions gives the job's exact resumed-window
	// count, whether the states came from Run's resume argument or from
	// mid-run failover.
	OnResume func(preserved int)
}

func (o *Options) retries() int {
	if o.Retries <= 0 {
		return 3
	}
	return o.Retries
}

func (o *Options) backoff() time.Duration {
	if o.Backoff <= 0 {
		return 250 * time.Millisecond
	}
	return o.Backoff
}

func (o *Options) stallTimeout() time.Duration {
	if o.StallTimeout <= 0 {
		return 2 * time.Minute
	}
	return o.StallTimeout
}

// Run executes one job as partitions of its walker ensemble and returns the
// combined full-ensemble state at the full budget — the bytes, and the merged
// result, of one estimator running every walker. With Peers each partition is
// dispatched to the fleet (falling back to LocalClient); with none each runs
// in this process through the same partition runner, partition 0 on the
// calling goroutine — so a local job is one partition, no goroutine, no bytes.
//
// The assignments must cover disjoint contiguous walker ranges of the same
// job (same config, budget and checkpoint spacing), in ascending Lo order; Run
// validates none of this — the caller builds them with a splitter like
// PartitionAssignments, and core.CombinePartitionStates rejects inconsistent
// states. Their Resume field is Run's (set per remote attempt). resume, when
// non-nil, is a full-ensemble state an earlier Run of the job reported
// through OnSync: every partition continues from its slice of it, and no
// target at or below it is synced again.
//
// On the first partition failure (after that partition's retries and local
// failover are exhausted) the remaining partitions are canceled and that
// failure is returned.
func Run(ctx context.Context, opts Options, asns []*Assignment, resume *core.EnsembleState) (*core.EnsembleState, error) {
	if len(asns) == 0 {
		return nil, fmt.Errorf("dist: no partitions to run")
	}
	for _, asn := range asns {
		if err := asn.Validate(); err != nil {
			return nil, err
		}
	}
	c := &coordinator{
		opts:    opts,
		asns:    asns,
		tracker: syncTracker{parts: make([]partTrack, len(asns)), onSync: opts.OnSync},
	}
	if c.opts.Metrics == nil || len(opts.Peers) == 0 {
		c.opts.Metrics = &noMetrics
	}
	if resume != nil {
		c.tracker.seed(asns, resume)
	}

	// The first hard failure aborts the job and is its error: the siblings it
	// stops report only the cancellation.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	run := func(p int) {
		if err := c.runOne(cctx, p); err != nil {
			cancel(err)
		}
	}
	for p := 1; p < len(asns); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			run(p)
		}(p)
	}
	run(0)
	wg.Wait()
	if err := context.Cause(cctx); err != nil {
		return nil, err
	}
	return c.tracker.final(asns[0].Budget)
}

// PartitionAssignments splits a job into n contiguous walker-range
// assignments (fewer when the ensemble has fewer walkers), sharing the given
// base fields. The split matches core's quota rule: partition p covers
// global walkers [p*W/n, (p+1)*W/n).
func PartitionAssignments(base Assignment, n int) []*Assignment {
	w := base.Walkers()
	if n > w {
		n = w
	}
	if n < 1 {
		n = 1
	}
	out := make([]*Assignment, n)
	for p := 0; p < n; p++ {
		asn := base
		asn.Lo, asn.Hi = p*w/n, (p+1)*w/n
		out[p] = &asn
	}
	return out
}

type coordinator struct {
	opts Options
	// httpc issues the partition POSTs. No overall Timeout: partition streams
	// run for the whole job, and stalls are caught by StallTimeout instead.
	httpc   http.Client
	asns    []*Assignment
	tracker syncTracker
}

// noMetrics is the all-nil Metrics whose handles no-op; never written.
var noMetrics Metrics

// runOne drives partition p to completion: remote attempts with rotating
// peers and jittered exponential backoff, then an in-process run. Each
// attempt resumes from the freshest state the tracker holds for p.
func (c *coordinator) runOne(ctx context.Context, p int) error {
	m := c.opts.Metrics
	asn := *c.asns[p] // private copy; Resume is re-encoded per attempt
	var lastErr error
	for attempt := 0; attempt < c.opts.retries() && len(c.opts.Peers) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			m.Partitions.With("retried").Inc()
			if err := sleepJittered(ctx, c.opts.backoff(), attempt); err != nil {
				return err
			}
		}
		peer := c.opts.Peers[(p+attempt)%len(c.opts.Peers)]
		resume := c.tracker.latest(p)
		asn.Resume = nil
		if resume != nil {
			asn.Resume = resume.Encode()
		}
		m.Partitions.With("dispatched").Inc()
		err := c.runRemote(ctx, peer, &asn, p)
		if err == nil {
			m.Partitions.With("completed").Inc()
			c.creditResume(p, resume)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = fmt.Errorf("peer %s: %w", peer, err)
	}
	if c.opts.LocalClient == nil {
		m.Partitions.With("failed").Inc()
		if lastErr == nil {
			lastErr = fmt.Errorf("no peers and no local failover")
		}
		return fmt.Errorf("dist: partition [%d,%d): %w", asn.Lo, asn.Hi, lastErr)
	}

	// In process — the fleet's last-resort failover, and all of a run without
	// peers: the worker's partition runner, its states handed to the tracker.
	m.Partitions.With("failover_local").Inc()
	resume := c.tracker.latest(p)
	err := c.runLocal(ctx, p, &asn, resume)
	if errors.Is(err, ErrBadResume) {
		// The freshest state is unusable; burn it and start over.
		c.tracker.forget(p)
		resume = nil
		err = c.runLocal(ctx, p, &asn, nil)
	}
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		m.Partitions.With("failed").Inc()
		if lastErr != nil {
			err = fmt.Errorf("%w (after remote attempts: %v)", err, lastErr)
		}
		return fmt.Errorf("dist: partition [%d,%d): %w", asn.Lo, asn.Hi, err)
	}
	m.Partitions.With("completed").Inc()
	c.creditResume(p, resume)
	return nil
}

// creditResume reports the windows partition p kept by restoring resume (nil
// when its completing attempt started from scratch): the one place resumed
// work is accounted.
func (c *coordinator) creditResume(p int, resume *core.EnsembleState) {
	if resume != nil && c.opts.OnResume != nil {
		asn := c.asns[p]
		c.opts.OnResume(core.PartitionWindows(resume.WindowsDone, asn.Walkers(), asn.Lo, asn.Hi))
	}
}

func (c *coordinator) runLocal(ctx context.Context, p int, asn *Assignment, resume *core.EnsembleState) error {
	return runPartition(ctx, c.opts.LocalClient(), asn, resume, func(st *core.EnsembleState) error {
		return c.tracker.store(p, st)
	})
}

// runRemote posts the assignment to one peer and consumes its frame stream.
// State bytes are decoded here, where they enter the process: one that does
// not parse or is not at its frame's target fails this attempt and never
// reaches the tracker, so it cannot become resume state.
func (c *coordinator) runRemote(ctx context.Context, peer string, asn *Assignment, p int) error {
	m := c.opts.Metrics
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, peer+"/v1/partitions", bytes.NewReader(asn.Encode()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	start := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		m.PeerHealthy.With(peer).Set(0)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.PeerHealthy.With(peer).Set(0)
		detail, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(detail))
	}

	// Stall watchdog: a worker that stops producing frames (dead process
	// behind a live TCP connection, wedged walk) gets its attempt canceled
	// so the retry loop can move on.
	watchdog := time.AfterFunc(c.opts.stallTimeout(), cancel)
	defer watchdog.Stop()

	br := bufio.NewReader(resp.Body)
	first := true
	for {
		f, err := ReadFrame(br)
		if err != nil {
			m.PeerHealthy.With(peer).Set(0)
			if err == io.EOF {
				return fmt.Errorf("stream ended before final frame")
			}
			if rctx.Err() != nil && ctx.Err() == nil {
				return fmt.Errorf("no frame for %s (stalled stream)", c.opts.stallTimeout())
			}
			return err
		}
		watchdog.Reset(c.opts.stallTimeout())
		if first {
			m.DispatchSeconds.Observe(time.Since(start).Seconds())
			first = false
		}
		if f.Kind == FrameError {
			m.PeerHealthy.With(peer).Set(0)
			return fmt.Errorf("worker: %s", f.Msg)
		}
		st, err := core.DecodeEnsembleState(f.State)
		if err == nil && st.WindowsDone != f.Target {
			err = fmt.Errorf("state stands at %d windows", st.WindowsDone)
		}
		if err == nil && f.Kind == FrameFinal && f.Target != asn.Budget {
			err = fmt.Errorf("final frame short of the budget %d", asn.Budget)
		}
		if err != nil {
			m.PeerHealthy.With(peer).Set(0)
			return fmt.Errorf("frame at target %d: %w", f.Target, err)
		}
		if err := c.tracker.store(p, st); err != nil {
			return err
		}
		if f.Kind == FrameFinal {
			m.StreamSeconds.Observe(time.Since(start).Seconds())
			m.PeerHealthy.With(peer).Set(1)
			return nil
		}
	}
}

func sleepJittered(ctx context.Context, base time.Duration, attempt int) error {
	d := base << uint(attempt-1)
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	// ±50% jitter decorrelates retry storms across partitions.
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// syncTracker accumulates per-partition states and detects the moments every
// partition has reached a common checkpoint target; at each such target it
// combines the partition states into one full-ensemble state and fires the
// OnSync callback. It also retains each partition's freshest state
// indefinitely: the resume point of a retry or failover and, once the
// partition completes, its final state.
type syncTracker struct {
	mu     sync.Mutex
	parts  []partTrack
	last   int                 // highest target already synced (or resumed from)
	synced *core.EnsembleState // the combined state of the last sync fired
	onSync func(combined *core.EnsembleState)
}

type partTrack struct {
	latest *core.EnsembleState
	// pending holds the partition's states past the last sync, in ascending
	// target order, until every other partition has reached them.
	pending []*core.EnsembleState
}

// seed starts every partition from its slice of a full-ensemble state and
// moves the sync floor to that state's target, so nothing at or below it is
// reported again. A partition whose slice cannot be cut starts from scratch.
func (tr *syncTracker) seed(asns []*Assignment, resume *core.EnsembleState) {
	tr.last = resume.WindowsDone
	for p, asn := range asns {
		if sl, err := resume.Slice(asn.Lo, asn.Hi); err == nil {
			tr.parts[p].latest = sl
		}
	}
}

// latest returns partition p's freshest state (nil when none).
func (tr *syncTracker) latest(p int) *core.EnsembleState {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.parts[p].latest
}

// forget drops everything held for partition p, whose freshest state turned
// out not to restore; the partition re-runs from scratch and re-emits it.
func (tr *syncTracker) forget(p int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.parts[p] = partTrack{}
}

// final returns the full-ensemble state at the budget once every partition
// has completed: the last sync's, or — a run resumed at its full budget
// completes without one — the combination of the states restored.
func (tr *syncTracker) final(budget int) (*core.EnsembleState, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.synced != nil && tr.synced.WindowsDone == budget {
		return tr.synced, nil
	}
	states := make([]*core.EnsembleState, len(tr.parts))
	for i := range tr.parts {
		states[i] = tr.parts[i].latest
	}
	return core.CombinePartitionStates(states)
}

// store records partition p's state at target st.WindowsDone, firing the sync
// callback when that completes a target across partitions. A state at or
// below the partition's freshest is dropped: an attempt that restarted from
// an older point is re-emitting what is already held — byte-identical, by
// determinism.
func (tr *syncTracker) store(p int, st *core.EnsembleState) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	pt := &tr.parts[p]
	if pt.latest != nil && st.WindowsDone <= pt.latest.WindowsDone {
		return nil
	}
	pt.latest = st
	if st.WindowsDone <= tr.last {
		return nil
	}
	pt.pending = append(pt.pending, st)

	// The highest target every partition has reached; partitions emit on
	// the same global checkpoint grid, so the minimum of the per-partition
	// maxima is itself present everywhere once it exceeds the last sync.
	cand := st.WindowsDone
	for i := range tr.parts {
		if tr.parts[i].latest == nil {
			return nil
		}
		cand = min(cand, tr.parts[i].latest.WindowsDone)
	}
	if cand <= tr.last {
		return nil
	}
	states := make([]*core.EnsembleState, len(tr.parts))
	for i := range tr.parts {
		for _, s := range tr.parts[i].pending {
			if s.WindowsDone == cand {
				states[i] = s
			}
		}
		if states[i] == nil {
			return nil // grid mismatch; wait for the exact target
		}
	}
	combined, err := core.CombinePartitionStates(states)
	if err != nil {
		return fmt.Errorf("dist: combining partition states at target %d: %w", cand, err)
	}
	tr.last, tr.synced = cand, combined
	for i := range tr.parts {
		// Keep what lies past the sync, reusing the backing array.
		pt := &tr.parts[i]
		pt.pending = slices.DeleteFunc(pt.pending, func(s *core.EnsembleState) bool { return s.WindowsDone <= cand })
	}
	if tr.onSync != nil {
		// Under the lock: syncs must reach the journal in target order.
		tr.onSync(combined)
	}
	return nil
}
