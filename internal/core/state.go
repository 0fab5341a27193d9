// Serializable run state: an estimation run is a state machine whose
// complete position — per-walker RNG stream position, walk position, state
// ring, and one accumulator per target size — is handed out at every
// checkpoint target (the RunCheckpointsCtx callback; MultiEstimator.Snapshot
// between runs, or Estimator.Snapshot for the one-size view), encoded to a
// compact versioned binary blob, and restored into a fresh estimator
// (Restore) to continue the run. The walk position and the ring are
// walk.WalkState and walk.State values from the walker to the codec and
// back: states are written as their sorted node lists, and the decoder
// turns each list into a State (walk.ParseState) where the bytes enter. A
// resumed run is byte-identical to an uninterrupted one at any GOMAXPROCS:
// the RNG stream is reconstructed by seed + fast-forward, float64 fields
// round-trip as IEEE-754 bits, and the ensemble's quota split is a pure
// function of the window counts.
//
// There is one state type and one codec. The blob format is "GMST" version
// 3; DecodeEnsembleState also reads the three formats older builds journaled
// — GMST version 2, GMST version 1 (multi-size runs) and "GEST" version 1
// (single-size runs) — and maps them onto the same EnsembleState,
// decode-only. Beside the full blob, a checkpoint may be written as a delta
// ("GMSD", delta.go) against the run's previous checkpoint state:
// EncodeDelta writes it and ApplyCheckpointDelta folds it back onto that
// state, exactly. The service journals a full blob at every 16th checkpoint
// target and deltas between; DecodeEnsembleState refuses a delta by its
// magic, so a build without the fold treats one as a blob that does not
// decode.

package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/walk"
	"repro/internal/wire"
)

// SizeAcc is one target size's private accumulator share within a walker
// (the walker's slice of the merged per-size Result).
type SizeAcc struct {
	// Done is the number of windows this size has accumulated (the walker's
	// share of Result.Steps); at a checkpoint target every size's Done is
	// the walker's quota.
	Done         int
	ValidSamples int
	// Weights and TypeCounts are indexed by graphlet type and have the same
	// length, the size's type count.
	Weights    []float64
	TypeCounts []int64
}

// WalkerState is the complete resumable state of one walker, captured by the
// walker itself at its quota of a checkpoint target.
type WalkerState struct {
	// RNGPos is the walker's RNG stream position (walk.Rand.Pos); the seed is
	// derived from (MultiConfig.Seed, walker index), so it is not stored.
	RNGPos uint64
	// Seeded/Primed mirror the walker's lifecycle flags: start state drawn,
	// burn-in done and state 0 pushed.
	Seeded bool
	Primed bool

	// WalkState is the walk position (meaningful when Seeded): Steps counts
	// transitions taken, burn-in included, and Prev is the zero State unless
	// HasPrev.
	walk.WalkState

	// State ring in walk order, oldest first — the last
	// min(Steps-BurnIn+1, max l_k) states (meaningful when Primed).
	Win  []walk.State
	Degs []int

	// Accs holds one accumulator per target size, in MultiConfig.Sizes order.
	Accs []SizeAcc
	// StarAcc is the walker's share of Result.StarAcc (zero unless
	// MultiConfig.RecoverStars).
	StarAcc float64
}

// checkQuota reports whether every size stands at exactly `want` windows.
func (w *WalkerState) checkQuota(want int) error {
	for j := range w.Accs {
		if done := w.Accs[j].Done; done != want {
			return fmt.Errorf("size[%d] processed %d windows, want %d", j, done, want)
		}
	}
	return nil
}

// EnsembleState is the serializable state of a whole estimation run (or of
// one partition of it: the full Config and the global checkpoint target, but
// only that partition's walker states).
type EnsembleState struct {
	// Config is the configuration the state was captured under; Restore
	// refuses a mismatch (a resumed run must re-create the same trajectory).
	Config MultiConfig
	// WindowsDone is the ensemble-wide checkpoint target reached: the number
	// of windows processed per size, summed over walkers, when the snapshot
	// was taken.
	WindowsDone int
	Walkers     []WalkerState
}

// Binary layout: magic, format version, the config section (AppendConfig),
// WindowsDone, then each walker. Integers are varints (zigzag for signed),
// float64s are fixed 8-byte IEEE-754 bits (exact round-trip), booleans are
// packed into flag bytes. The format is version-gated: decoding a snapshot
// written by a future format fails loudly instead of misinterpreting it.
//
// The config section is the one binary form of a MultiConfig: the dist
// assignment wire format and the service's cache key carry the same bytes,
// and config equality compares them.
//
// GMST version 2 is version 1 plus BurnIn after the config flag byte, the
// RecoverStars bit in that byte (which version 1 rejects), and — only under
// that bit — StarAcc after each walker's accumulators.
//
// GMST version 3 is version 2 with two savings per walker, both lossless:
//   - the walk position is elided where the ring already holds it: two more
//     bits in the walker's flag byte say that Cur is the ring's last state
//     and that Prev is its second-to-last, and a state under its bit is not
//     written;
//   - each accumulator is sparse: its type count once, then a presence
//     bitmap of ceil(types/8) bytes (type t is bit t%8 of byte t/8), then the
//     weight and count of each present type in type order. A type is present
//     iff its weight's bits or its count are nonzero, so -0.0 round-trips.
const (
	stateMagic   = "GMST"
	stateVersion = 3

	// legacyMagic is the pre-merge single-size format (version 1 only), whose
	// walker carried one unnamed accumulator and always a StarAcc.
	legacyMagic = "GEST"

	// Decode-side sanity caps: a corrupt length prefix must produce an error,
	// not an absurd allocation. Graphlet sizes live in 3..5, so a size list
	// past a small constant is corruption.
	maxStateWalkers = 1 << 16
	maxStateWindow  = 64
	maxStateTypes   = 4096
	maxStateSizes   = 16
)

// Encode renders the state as a versioned binary blob.
func (st *EnsembleState) Encode() []byte {
	buf := make([]byte, 0, 256+len(st.Walkers)*256*len(st.Config.Sizes))
	buf = append(buf, stateMagic...)
	buf = binary.AppendUvarint(buf, stateVersion)
	buf = AppendConfig(buf, st.Config)
	buf = binary.AppendVarint(buf, int64(st.WindowsDone))
	buf = binary.AppendUvarint(buf, uint64(len(st.Walkers)))
	for i := range st.Walkers {
		buf = st.Walkers[i].encode(buf, st.Config.RecoverStars)
	}
	return buf
}

// ConfigLayout names a binary layout of the config section.
type ConfigLayout uint8

const (
	// ConfigGEST1 is GEST version 1's section (and GDPA version 1's
	// single-size one): one size, D, the CSS/NB/RecoverStars flag byte,
	// BurnIn, Walkers, Seed.
	ConfigGEST1 ConfigLayout = iota + 1
	// ConfigGMST1 is GMST version 1's section (and GDPA version 1's
	// multi-size one): the size list, D, the flag byte with the RecoverStars
	// bit refused, Walkers, Seed — no BurnIn.
	ConfigGMST1
	// ConfigGMST2 is the current section, the one AppendConfig writes (GMST
	// versions 2 and 3 share it): the size list, D, the CSS/NB/RecoverStars
	// flag byte, BurnIn, Walkers, Seed.
	ConfigGMST2
)

// AppendConfig appends c's canonical encoding — the config section of a GMST
// version 2 or 3 state — to buf. Two configs are equal exactly when their
// encodings are.
func AppendConfig(buf []byte, c MultiConfig) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(c.Sizes)))
	for _, k := range c.Sizes {
		buf = binary.AppendVarint(buf, int64(k))
	}
	buf = binary.AppendVarint(buf, int64(c.D))
	buf = append(buf, wire.PackBools(c.CSS, c.NB, c.RecoverStars))
	buf = binary.AppendVarint(buf, int64(c.BurnIn))
	buf = binary.AppendVarint(buf, int64(c.Walkers))
	return binary.AppendVarint(buf, c.Seed)
}

// ReadConfig reads a config section of the given layout at the cursor. A
// malformed section fails the cursor; the config is not validated.
func ReadConfig(d *wire.Cursor, layout ConfigLayout) MultiConfig {
	var c MultiConfig
	if layout == ConfigGEST1 {
		c.Sizes = []int{int(d.Varint())}
	} else {
		n := d.Uvarint()
		if d.Err == nil && (n == 0 || n > maxStateSizes) {
			d.Fail("%d sizes out of range", n)
		}
		if d.Err == nil {
			c.Sizes = make([]int, n)
			for i := range c.Sizes {
				c.Sizes[i] = int(d.Varint())
			}
		}
	}
	c.D = int(d.Varint())
	c.CSS, c.NB, c.RecoverStars = d.Bools(3)
	if layout != ConfigGMST1 {
		c.BurnIn = int(d.Varint())
	} else if c.RecoverStars {
		d.Fail("unknown config flag")
	}
	c.Walkers = int(d.Varint())
	c.Seed = d.Varint()
	return c
}

func (w *WalkerState) encode(buf []byte, stars bool) []byte {
	buf = binary.AppendUvarint(buf, w.RNGPos)
	buf = w.appendWalk(buf, w.Steps)
	buf = binary.AppendUvarint(buf, uint64(len(w.Accs)))
	for i := range w.Accs {
		buf = w.Accs[i].encode(buf)
	}
	if stars {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.StarAcc))
	}
	return buf
}

// appendWalk writes the walker's flag byte, then steps (its Steps, or a
// delta's difference), then the walk position where the ring does not hold
// it, the ring and the ring's degrees: version 3's walker between RNGPos and
// the accumulators.
func (w *WalkerState) appendWalk(buf []byte, steps int64) []byte {
	n := len(w.Win)
	curInWin := n >= 1 && w.Cur == w.Win[n-1]
	prevInWin := n >= 2 && w.Prev == w.Win[n-2]
	buf = append(buf, wire.PackBools(w.Seeded, w.Primed, w.HasPrev, curInWin, prevInWin))
	buf = binary.AppendVarint(buf, steps)
	if !curInWin {
		buf = appendState(buf, w.Cur)
	}
	if !prevInWin {
		buf = appendState(buf, w.Prev)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, s := range w.Win {
		buf = appendState(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.Degs)))
	for _, d := range w.Degs {
		buf = binary.AppendVarint(buf, int64(d))
	}
	return buf
}

// encode writes the accumulator in version 3's sparse form.
func (a *SizeAcc) encode(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(a.Done))
	buf = binary.AppendVarint(buf, int64(a.ValidSamples))
	nt := len(a.Weights)
	buf = binary.AppendUvarint(buf, uint64(nt))
	bitmap := len(buf)
	buf = append(buf, make([]byte, (nt+7)/8)...)
	for t, f := range a.Weights {
		if math.Float64bits(f) == 0 && a.TypeCounts[t] == 0 {
			continue
		}
		buf[bitmap+t/8] |= 1 << (t % 8)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		buf = binary.AppendVarint(buf, a.TypeCounts[t])
	}
	return buf
}

// appendState writes a state as its node count and its nodes, ascending; the
// zero State is a count of 0.
func appendState(buf []byte, s walk.State) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	for i := range s.Len() {
		buf = binary.AppendVarint(buf, int64(s.Node(i)))
	}
	return buf
}

// DecodeEnsembleState parses a blob produced by Encode — or by the GMST
// version 2, GMST version 1 and GEST version 1 encoders of older builds,
// whose journals and resume blobs must keep restoring. Every length and
// range is validated, so arbitrary (truncated, corrupt, adversarial) input
// produces an error, never a panic or an absurd allocation.
func DecodeEnsembleState(data []byte) (*EnsembleState, error) {
	d := &wire.Cursor{Data: data}
	magic := string(d.Bytes(len(stateMagic)))
	if magic != stateMagic && magic != legacyMagic {
		return nil, fmt.Errorf("core: ensemble state: bad magic")
	}
	legacy := magic == legacyMagic
	version := d.Uvarint()
	if d.Err == nil && (version < 1 || version > stateVersion || legacy && version != 1) {
		return nil, fmt.Errorf("core: ensemble state: unsupported %s format version %d (have %d)", magic, version, stateVersion)
	}

	layout := ConfigGMST2
	switch {
	case legacy:
		layout = ConfigGEST1
	case version == 1:
		layout = ConfigGMST1
	}
	st := &EnsembleState{Config: ReadConfig(d, layout)}
	st.WindowsDone = int(d.Varint())
	n := d.Uvarint()
	if d.Err == nil && n > maxStateWalkers {
		return nil, fmt.Errorf("core: ensemble state: %d walkers exceeds cap", n)
	}
	if d.Err == nil {
		st.Walkers = make([]WalkerState, n)
		for i := range st.Walkers {
			st.Walkers[i].decode(d, legacy, version == stateVersion, st.Config.RecoverStars)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("core: ensemble state: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("core: ensemble state: %d trailing bytes", d.Rest())
	}
	if st.WindowsDone < 0 {
		return nil, fmt.Errorf("core: ensemble state: negative windows done %d", st.WindowsDone)
	}
	return st, nil
}

// decode reads one walker; sparse selects version 3's elided walk position
// and sparse accumulators.
func (w *WalkerState) decode(d *wire.Cursor, legacy, sparse, stars bool) {
	w.RNGPos = d.Uvarint()
	w.Steps = w.readWalk(d, sparse)
	if legacy {
		// A GEST walker is its one accumulator, unprefixed, then a StarAcc
		// that is written even when unused (and is zero then).
		w.Accs = make([]SizeAcc, 1)
		w.Accs[0].decodeDense(d)
		if star := readFloat64(d); stars {
			w.StarAcc = star
		}
		return
	}
	nAcc := d.Uvarint()
	if d.Err == nil && nAcc > maxStateSizes {
		d.Fail("accumulator count %d exceeds cap", nAcc)
	}
	if d.Err == nil && nAcc > 0 {
		w.Accs = make([]SizeAcc, nAcc)
		for i := range w.Accs {
			if sparse {
				w.Accs[i].decodeSparse(d)
			} else {
				w.Accs[i].decodeDense(d)
			}
		}
	}
	if stars {
		w.StarAcc = readFloat64(d)
	}
}

// readWalk reads what appendWalk writes — with elide, version 3's five
// flags; without, the three of the older formats, which write the walk
// position in full — and returns the steps field it read.
func (w *WalkerState) readWalk(d *wire.Cursor, elide bool) int64 {
	nFlags := 3
	if elide {
		nFlags = 5
	}
	flags := d.Flags(nFlags)
	w.Seeded, w.Primed, w.HasPrev = flags&1 != 0, flags&2 != 0, flags&4 != 0
	curInWin, prevInWin := flags&8 != 0, flags&16 != 0
	steps := d.Varint()
	if !curInWin {
		w.Cur = readState(d)
	}
	if !prevInWin {
		w.Prev = readState(d)
	}
	nWin := d.Uvarint()
	if d.Err == nil && nWin > maxStateWindow {
		d.Fail("ring length %d exceeds cap", nWin)
	}
	if d.Err == nil && nWin > 0 {
		w.Win = make([]walk.State, nWin)
		for i := range w.Win {
			w.Win[i] = readState(d)
		}
	}
	if curInWin {
		if len(w.Win) < 1 {
			d.Fail("current state elided over a ring of %d states", len(w.Win))
		} else {
			w.Cur = w.Win[len(w.Win)-1]
		}
	}
	if prevInWin {
		if len(w.Win) < 2 {
			d.Fail("previous state elided over a ring of %d states", len(w.Win))
		} else {
			w.Prev = w.Win[len(w.Win)-2]
		}
	}
	nDeg := d.Uvarint()
	if d.Err == nil && nDeg > maxStateWindow {
		d.Fail("degree list length %d exceeds cap", nDeg)
	}
	if d.Err == nil && nDeg > 0 {
		w.Degs = make([]int, nDeg)
		for i := range w.Degs {
			w.Degs[i] = int(d.Varint())
		}
	}
	return steps
}

// decodeSparse reads an accumulator written by encode. A bitmap bit at or
// past the type count, or a present type whose weight and count are both
// zero, is corruption: the encoder writes neither.
func (a *SizeAcc) decodeSparse(d *wire.Cursor) {
	a.Done = int(d.Varint())
	a.ValidSamples = int(d.Varint())
	nt := d.Uvarint()
	if d.Err == nil && nt > maxStateTypes {
		d.Fail("type count %d exceeds cap", nt)
	}
	if d.Err != nil || nt == 0 {
		return
	}
	bitmap := d.Bytes(int(nt+7) / 8)
	if d.Err != nil {
		return
	}
	if pad := nt % 8; pad != 0 && bitmap[len(bitmap)-1]>>pad != 0 {
		d.Fail("presence bit past type count %d", nt)
		return
	}
	a.Weights = make([]float64, nt)
	a.TypeCounts = make([]int64, nt)
	for t := range a.Weights {
		if bitmap[t/8]&(1<<(t%8)) == 0 {
			continue
		}
		a.Weights[t] = readFloat64(d)
		a.TypeCounts[t] = d.Varint()
		if d.Err == nil && math.Float64bits(a.Weights[t]) == 0 && a.TypeCounts[t] == 0 {
			d.Fail("type %d present with zero weight and count", t)
		}
	}
}

// decodeDense reads an accumulator of the formats before version 3: every
// type's weight, then every type's count. The two lists must be equally
// long, as they are in every state a walker hands out.
func (a *SizeAcc) decodeDense(d *wire.Cursor) {
	a.Done = int(d.Varint())
	a.ValidSamples = int(d.Varint())
	nW := d.Uvarint()
	if d.Err == nil && nW > maxStateTypes {
		d.Fail("weights length %d exceeds cap", nW)
	}
	if d.Err == nil && nW > 0 {
		a.Weights = make([]float64, nW)
		for i := range a.Weights {
			a.Weights[i] = readFloat64(d)
		}
	}
	nT := d.Uvarint()
	if d.Err == nil && nT != nW {
		d.Fail("type counts length %d, weights length %d", nT, nW)
	}
	if d.Err == nil && nT > 0 {
		a.TypeCounts = make([]int64, nT)
		for i := range a.TypeCounts {
			a.TypeCounts[i] = d.Varint()
		}
	}
}

// readFloat64 reads a fixed 8-byte IEEE-754 value. The accumulator fields are
// finite sums of finite weights, so NaN or Inf here is corruption.
func readFloat64(d *wire.Cursor) float64 {
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.Bytes(8)))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.Fail("non-finite accumulator value")
	}
	return f
}

// readState reads a state written by appendState (a count of 0 is the zero
// State). The node list becomes a State here, through walk.ParseState, so a
// list too long or with a repeated node fails the decode.
func readState(d *wire.Cursor) walk.State {
	n := d.Uvarint()
	if d.Err != nil || n == 0 {
		return walk.State{}
	}
	if n > walk.MaxD {
		d.Fail("state of %d nodes exceeds walk.MaxD", n)
		return walk.State{}
	}
	var nodes [walk.MaxD]int32
	for i := range n {
		nodes[i] = int32(d.Varint())
	}
	s, err := walk.ParseState(nodes[:n])
	if err != nil {
		d.Fail("%v", err)
	}
	return s
}
