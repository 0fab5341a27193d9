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

	// HTTPClient issues the partition POSTs. It must not set an overall
	// Timeout (partition streams run for the whole job); stalls are caught
	// by StallTimeout instead. Nil means a fresh client.
	HTTPClient *http.Client

	// Retries is how many remote attempts a partition gets before failing
	// over to local execution (default 3).
	Retries int

	// Backoff is the base delay between a partition's attempts, growing
	// exponentially and jittered by ±50% (default 250ms).
	Backoff time.Duration

	// StallTimeout aborts an attempt when the worker stream produces no
	// frame for this long (default 2m). It must comfortably exceed the
	// expected gap between checkpoint barriers.
	StallTimeout time.Duration

	// LocalClient, when set, supplies a crawl client for running a
	// partition on the coordinator itself after remote attempts are
	// exhausted — the last-resort failover that lets a job complete with
	// every peer dead. Nil disables local failover.
	LocalClient func() access.Client

	// Metrics instruments the run; nil disables instrumentation.
	Metrics *Metrics

	// OnSync fires — serialized, with strictly increasing targets — each
	// time every partition has reached a common checkpoint target, with the
	// combined full-ensemble state encoded: the coordinator's journal
	// checkpoint, from which a restarted coordinator (or a plain local run)
	// can resume.
	OnSync func(target int, combined []byte)

	// OnResume fires once per partition that completes after restoring a
	// snapshot, with the number of already-processed windows the restore
	// preserved (the partition's quota share of the snapshot's target).
	// Summing these over partitions gives the job's exact resumed-window
	// count, whether the snapshots came from assignment Resume blobs or
	// from mid-run failover.
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

// Run executes one job's partitions across the fleet and returns the final
// encoded partition states in partition order. The assignments must cover
// disjoint contiguous walker ranges of the same job (same config, budget and
// checkpoint spacing), in ascending Lo order; Run validates none of this —
// the caller builds them with a splitter like PartitionAssignments, and
// core.CombinePartitionStates rejects inconsistent results downstream.
//
// On the first partition failure (after that partition's retries and local
// failover are exhausted) the remaining partitions are canceled and the
// first error in partition order is returned, alongside any finals that did
// complete (entries for failed partitions are nil).
func Run(ctx context.Context, opts Options, asns []*Assignment) ([][]byte, error) {
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
		httpc:   opts.HTTPClient,
		asns:    asns,
		tracker: newSyncTracker(len(asns), opts.OnSync),
		finals:  make([][]byte, len(asns)),
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	if c.opts.Metrics == nil {
		c.opts.Metrics = &Metrics{}
	}
	// Seed each partition's resume state so retries restart from at least
	// the assignment's own blob.
	for p, asn := range asns {
		if len(asn.Resume) > 0 {
			t, err := stateTarget(asn.Resume)
			if err != nil {
				return nil, fmt.Errorf("dist: partition %d resume blob: %w", p, err)
			}
			c.tracker.store(p, t, asn.Resume)
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(asns))
	var wg sync.WaitGroup
	for p := range asns {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := c.runOne(cctx, p); err != nil {
				errs[p] = err
				cancel() // first hard failure aborts the job
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return c.finals, err
		}
	}
	return c.finals, nil
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
	opts    Options
	httpc   *http.Client
	asns    []*Assignment
	tracker *syncTracker
	finals  [][]byte
}

// runOne drives partition p to completion: remote attempts with rotating
// peers and jittered exponential backoff, then local failover. Each attempt
// resumes from the freshest snapshot the tracker has seen for p.
func (c *coordinator) runOne(ctx context.Context, p int) error {
	m := c.opts.Metrics
	asn := *c.asns[p] // private copy; Resume mutates per attempt
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
		resumeTarget := c.refreshResume(p, &asn)
		m.Partitions.With("dispatched").Inc()
		err := c.runRemote(ctx, peer, &asn, p)
		if err == nil {
			m.Partitions.With("completed").Inc()
			c.onPartitionDone(p, resumeTarget)
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

	// Local failover: same execution path as the worker, frames fed
	// straight into the tracker.
	m.Partitions.With("failover_local").Inc()
	resumeTarget := c.refreshResume(p, &asn)
	err := c.runLocal(ctx, p, &asn)
	if errors.Is(err, ErrBadResume) {
		// The freshest snapshot is unusable; burn it and start over.
		asn.Resume = nil
		resumeTarget = 0
		err = c.runLocal(ctx, p, &asn)
	}
	if err != nil {
		m.Partitions.With("failed").Inc()
		if lastErr != nil {
			err = fmt.Errorf("%w (after remote attempts: %v)", err, lastErr)
		}
		return fmt.Errorf("dist: partition [%d,%d): %w", asn.Lo, asn.Hi, err)
	}
	m.Partitions.With("completed").Inc()
	c.onPartitionDone(p, resumeTarget)
	return nil
}

// refreshResume points the assignment at the freshest snapshot the tracker
// has for p and returns that snapshot's target (0 when starting fresh).
func (c *coordinator) refreshResume(p int, asn *Assignment) int {
	t, blob := c.tracker.latest(p)
	if t > 0 {
		asn.Resume = blob
	}
	return t
}

func (c *coordinator) onPartitionDone(p, resumeTarget int) {
	if resumeTarget > 0 && c.opts.OnResume != nil {
		asn := c.asns[p]
		c.opts.OnResume(core.PartitionWindows(resumeTarget, asn.Walkers(), asn.Lo, asn.Hi))
	}
}

func (c *coordinator) runLocal(ctx context.Context, p int, asn *Assignment) error {
	final, err := runPartitionTracked(ctx, c.opts.LocalClient(), asn, c.tracker, p)
	if err != nil {
		return err
	}
	c.finals[p] = final
	return nil
}

// runPartitionTracked runs a partition in-process, storing every frame in
// the tracker, and returns the final state blob.
func runPartitionTracked(ctx context.Context, client access.Client, asn *Assignment, tr *syncTracker, p int) ([]byte, error) {
	var final []byte
	err := RunPartition(ctx, client, asn, func(f *Frame) error {
		if err := tr.store(p, f.Target, f.State); err != nil {
			return err
		}
		if f.Kind == FrameFinal {
			final = f.State
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		return nil, fmt.Errorf("dist: partition run produced no final state")
	}
	return final, nil
}

// runRemote posts the assignment to one peer and consumes its frame stream.
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
		switch f.Kind {
		case FrameSnapshot:
			if err := c.tracker.store(p, f.Target, f.State); err != nil {
				return err
			}
		case FrameFinal:
			if err := c.tracker.store(p, f.Target, f.State); err != nil {
				return err
			}
			c.finals[p] = f.State
			m.StreamSeconds.Observe(time.Since(start).Seconds())
			m.PeerHealthy.With(peer).Set(1)
			return nil
		case FrameError:
			m.PeerHealthy.With(peer).Set(0)
			return fmt.Errorf("worker: %s", f.Msg)
		}
	}
}

// stateTarget extracts the checkpoint target a resume blob was captured at.
func stateTarget(blob []byte) (int, error) {
	st, err := core.DecodeEnsembleState(blob)
	if err != nil {
		return 0, err
	}
	return st.WindowsDone, nil
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

// syncTracker accumulates per-partition snapshots and detects the moments
// every partition has reached a common checkpoint target; at each such
// target it combines the partition states into one full-ensemble state and
// fires the OnSync callback. It also retains each partition's freshest
// snapshot indefinitely, as the retry/failover resume state.
type syncTracker struct {
	mu     sync.Mutex
	parts  []partTrack
	last   int // highest target already synced
	onSync func(target int, combined []byte)
}

type partTrack struct {
	snaps   map[int][]byte
	latestT int
	latestB []byte
}

func newSyncTracker(n int, onSync func(int, []byte)) *syncTracker {
	tr := &syncTracker{parts: make([]partTrack, n), onSync: onSync}
	for i := range tr.parts {
		tr.parts[i].snaps = make(map[int][]byte)
	}
	return tr
}

// latest returns partition p's freshest snapshot (0, nil when none).
func (tr *syncTracker) latest(p int) (int, []byte) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.parts[p].latestT, tr.parts[p].latestB
}

// store records a snapshot of partition p at the given target, firing the
// sync callback when the target is complete across partitions. Snapshots at
// already-synced targets (a retried partition re-running from scratch
// re-emits them — byte-identical, by determinism) are ignored for syncing
// but still refresh nothing, as latestT is monotone.
func (tr *syncTracker) store(p, target int, blob []byte) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	pt := &tr.parts[p]
	if target > pt.latestT || pt.latestB == nil {
		pt.latestT, pt.latestB = target, blob
	}
	if target <= tr.last {
		return nil
	}
	pt.snaps[target] = blob

	// The highest target every partition has reached; partitions emit on
	// the same global checkpoint grid, so the minimum of the per-partition
	// maxima is itself present everywhere once it exceeds the last sync.
	cand := tr.parts[0].latestT
	for i := range tr.parts {
		if tr.parts[i].latestT < cand {
			cand = tr.parts[i].latestT
		}
	}
	if cand <= tr.last {
		return nil
	}
	blobs := make([][]byte, len(tr.parts))
	for i := range tr.parts {
		b, ok := tr.parts[i].snaps[cand]
		if !ok {
			return nil // grid mismatch; wait for the exact target
		}
		blobs[i] = b
	}
	combined, err := combineBlobs(blobs)
	if err != nil {
		return fmt.Errorf("dist: combining partition snapshots at target %d: %w", cand, err)
	}
	tr.last = cand
	for i := range tr.parts {
		for t := range tr.parts[i].snaps {
			if t <= cand {
				delete(tr.parts[i].snaps, t)
			}
		}
	}
	if tr.onSync != nil {
		// Under the lock: syncs must reach the journal in target order.
		tr.onSync(cand, combined)
	}
	return nil
}

// combineBlobs decodes per-partition states (in partition order) and
// re-encodes their combination.
func combineBlobs(blobs [][]byte) ([]byte, error) {
	parts := make([]*core.EnsembleState, len(blobs))
	for i, b := range blobs {
		st, err := core.DecodeEnsembleState(b)
		if err != nil {
			return nil, err
		}
		parts[i] = st
	}
	combined, err := core.CombinePartitionStates(parts)
	if err != nil {
		return nil, err
	}
	return combined.Encode(), nil
}
