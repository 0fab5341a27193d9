package core

import (
	"fmt"
	"sync"
)

// The ensemble layer runs MultiConfig.Walkers independent walkers concurrently
// and merges their private accumulators. Three invariants make the merged
// output byte-identical across runs and GOMAXPROCS settings:
//
//  1. Seeds: walker i's RNG seed is a pure function of (MultiConfig.Seed, i)
//     (walkerSeed), so every walker's trajectory is fixed up front.
//  2. Budgets: the n-window budget is split by walkerQuota, a pure function
//     of (n, W, i), so each walker processes a fixed window set.
//  3. Merging: accumulators are summed in walker-index order (addWalker), so
//     floating-point addition order never depends on goroutine scheduling.

// walkerCount normalizes Config.Walkers: 0 (the zero value) means one walker.
func walkerCount(w int) int {
	if w <= 1 {
		return 1
	}
	return w
}

// walkerSeed derives walker i's RNG seed from the configured seed. Walker 0
// uses the seed unchanged, so a single-walker ensemble reproduces the
// historical single-threaded runs exactly; the rest get splitmix64-scrambled
// streams, which are well separated even for adjacent seeds.
func walkerSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// walkerQuota returns how many of the first `total` windows walker i of
// nWalkers owns: an even split with the remainder assigned to the lowest
// indices. It is monotone in total, which lets checkpointed runs advance each
// walker by quota differences.
func walkerQuota(total, nWalkers, i int) int {
	q := total / nWalkers
	if i < total%nWalkers {
		q++
	}
	return q
}

// runStage executes fn(i) for i in [0, n) — concurrently when n > 1 — and
// returns the first error in walker-index order (deterministic even when
// several walkers fail). A panic inside a walker is converted into that
// walker's error here rather than at the run entry (RunCheckpointsCtx),
// because a parent cannot catch a goroutine's panic — uniformly for single-
// and multi-walker stages, so the error reads the same either way.
func runStage(n int, fn func(i int) error) error {
	if n == 1 {
		return runWalkerGuarded(0, fn)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runWalkerGuarded(i, fn)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWalkerGuarded invokes fn(i), converting a panic into an error.
func runWalkerGuarded(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: walker %d: %v", i, r)
		}
	}()
	return fn(i)
}

// checkpointTargets returns the cumulative window counts at which the
// ensemble synchronizes: every, 2·every, … when snapshots are requested, and
// always the final n. With no callback (or every <= 0) the whole budget is
// one stage, so walkers run barrier-free end to end.
func checkpointTargets(n, every int, snapshots bool) []int {
	var targets []int
	if snapshots && every > 0 {
		for s := every; s <= n; s += every {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 || targets[len(targets)-1] != n {
		targets = append(targets, n)
	}
	return targets
}
