package walk

import "math/rand"

// Rand is a math/rand.Rand whose stream position is observable and seekable:
// every low-level draw from the underlying source is counted, so a stream can
// be snapshotted as (seed, position) and reconstructed exactly by re-seeding
// and fast-forwarding. This is what makes a random walk's state serializable
// without serializing the generator's internal state — the position is a
// stable, version-independent description of it.
//
// The counted source delegates to rand.NewSource(seed), so the values drawn
// through a Rand are byte-identical to rand.New(rand.NewSource(seed)): code
// that switches from a bare rand.Rand to a Rand reproduces its historical
// streams exactly.
//
// The generator and its draw counter are held by value, so a Rand embedded
// in a larger struct keeps the counter it writes on every draw inside that
// struct: InitAt initializes such a Rand in place. The embedded rand.Rand
// draws through a pointer to the counter, so a Rand must not be copied once
// initialized.
type Rand struct {
	rand.Rand
	src countingSource
}

// countingSource wraps a rand.Source64, counting draws. Int63 and Uint64 both
// advance the underlying generator by exactly one state transition, so a
// fast-forward may replay the count with either method regardless of the mix
// the original consumer used.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// InitAt (re)initializes r in place, seeded with seed and fast-forwarded to
// position pos: its future draws are identical to those of a Rand
// initialized at (seed, 0) that already consumed pos draws. Cost is O(pos) cheap source transitions
// (tens of nanoseconds each), which bounds resume cost by the interrupted
// run's length, not by any graph work.
func (r *Rand) InitAt(seed int64, pos uint64) {
	r.src = countingSource{src: rand.NewSource(seed).(rand.Source64)}
	for i := uint64(0); i < pos; i++ {
		r.src.src.Int63()
	}
	r.src.n = pos
	r.Rand = *rand.New(&r.src)
}

// Pos returns the number of low-level draws consumed so far.
func (r *Rand) Pos() uint64 { return r.src.n }
