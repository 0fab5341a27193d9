package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/wire"
)

// Checkpoint deltas: a run's consecutive checkpoint states differ only in a
// few counters, the weight bits of the types sampled in between, and the
// walk position and ring. A delta carries just that, against the state of
// the run's previous checkpoint (its base), and ApplyCheckpointDelta folds it
// back onto that base exactly.
//
// Layout: magic "GMSD", format version, the base's WindowsDone, then the
// difference to this state's WindowsDone and the walker count (the base's),
// then each walker:
//   - its RNGPos difference less its Steps difference, then the flag byte,
//     the Steps difference, the walk position, ring and degrees, all exactly
//     as version 3 writes them with Steps in the difference's place;
//   - the accumulator count (the base's), then each accumulator: its Done
//     difference less the Steps difference, its ValidSamples difference less
//     the Done difference, its type count (the base's), a change bitmap of
//     ceil(types/8) bytes (type t is bit t%8 of byte t/8, set iff the type's
//     weight bits or count differ from the base's), then for each changed
//     type a header byte, the count difference unless the header holds it,
//     and the weight's XOR bytes;
//   - under the config's RecoverStars bit, StarAcc's XOR byte count and its
//     XOR bytes.
//
// Differences are zigzag varints of the two's-complement difference, so
// they wrap exactly. The subtracted differences are predictions, not
// constraints: a walker takes about one transition per window and draws
// about one random number per transition, and most windows are valid
// samples, so what is written is usually a byte. An XOR is the weight's
// IEEE-754 bits XORed with the base's, written as its n low-order bytes
// (its high 8-n bytes are zero: nearby values share sign, exponent and
// leading mantissa bits). A changed type's header byte holds n in its low
// nibble and the count difference in its high one when that is 0 to 14; a
// high nibble of 15 says the difference follows as a varint. The codec does
// no float arithmetic. The config section is not written: a delta only
// folds onto a state of the same run, whose config it takes.
const (
	deltaMagic   = "GMSD"
	deltaVersion = 1
)

// IsCheckpointDelta reports whether blob carries a delta's magic (and is
// therefore not a full state blob).
func IsCheckpointDelta(blob []byte) bool {
	return len(blob) >= len(deltaMagic) && string(blob[:len(deltaMagic)]) == deltaMagic
}

// EncodeDelta renders st as a delta against base, the state of the same
// run's previous checkpoint. It fails when the two do not share a config and
// a walker, size and type shape; the caller then writes st in full.
func (st *EnsembleState) EncodeDelta(base *EnsembleState) ([]byte, error) {
	if !st.sameShape(base) {
		return nil, fmt.Errorf("core: checkpoint delta: state and base differ in config or shape")
	}
	buf := make([]byte, 0, 64+len(st.Walkers)*128*len(st.Config.Sizes))
	buf = append(buf, deltaMagic...)
	buf = binary.AppendUvarint(buf, deltaVersion)
	buf = binary.AppendVarint(buf, int64(base.WindowsDone))
	buf = binary.AppendVarint(buf, int64(st.WindowsDone-base.WindowsDone))
	buf = binary.AppendUvarint(buf, uint64(len(st.Walkers)))
	for i := range st.Walkers {
		w, b := &st.Walkers[i], &base.Walkers[i]
		steps := w.Steps - b.Steps
		buf = binary.AppendVarint(buf, int64(w.RNGPos-b.RNGPos)-steps)
		buf = w.appendWalk(buf, steps)
		buf = binary.AppendUvarint(buf, uint64(len(w.Accs)))
		for j := range w.Accs {
			buf = w.Accs[j].appendDelta(buf, &b.Accs[j], steps)
		}
		if st.Config.RecoverStars {
			x, n := xorBits(w.StarAcc, b.StarAcc)
			buf = appendXOR(append(buf, byte(n)), x, n)
		}
	}
	return buf, nil
}

// sameShape reports whether st and base share a config, a walker count and,
// per walker, the accumulator count and each accumulator's type count.
func (st *EnsembleState) sameShape(base *EnsembleState) bool {
	if !st.Config.equal(base.Config) || len(st.Walkers) != len(base.Walkers) {
		return false
	}
	for i := range st.Walkers {
		w, b := &st.Walkers[i], &base.Walkers[i]
		if len(w.Accs) != len(b.Accs) {
			return false
		}
		for j := range w.Accs {
			nt := len(b.Accs[j].Weights)
			if len(w.Accs[j].Weights) != nt || len(w.Accs[j].TypeCounts) != nt || len(b.Accs[j].TypeCounts) != nt {
				return false
			}
		}
	}
	return true
}

// appendDelta writes the accumulator as a delta against b, of the same type
// count; steps is the walker's Steps difference.
func (a *SizeAcc) appendDelta(buf []byte, b *SizeAcc, steps int64) []byte {
	done := int64(a.Done - b.Done)
	buf = binary.AppendVarint(buf, done-steps)
	buf = binary.AppendVarint(buf, int64(a.ValidSamples-b.ValidSamples)-done)
	nt := len(a.Weights)
	buf = binary.AppendUvarint(buf, uint64(nt))
	bitmap := len(buf)
	buf = append(buf, make([]byte, (nt+7)/8)...)
	for t, f := range a.Weights {
		count := a.TypeCounts[t] - b.TypeCounts[t]
		x, n := xorBits(f, b.Weights[t])
		if x == 0 && count == 0 {
			continue
		}
		buf[bitmap+t/8] |= 1 << (t % 8)
		if count >= 0 && count < countInHeader {
			buf = append(buf, byte(n)|byte(count)<<4)
		} else {
			buf = binary.AppendVarint(append(buf, byte(n)|countInHeader<<4), count)
		}
		buf = appendXOR(buf, x, n)
	}
	return buf
}

// countInHeader is the high-nibble value of a changed type's header byte
// that says its count difference follows as a varint; smaller values are
// the difference itself.
const countInHeader = 15

// xorBits returns f's bits XORed with base's and the count of its
// significant bytes.
func xorBits(f, base float64) (uint64, int) {
	x := math.Float64bits(f) ^ math.Float64bits(base)
	return x, (bits.Len64(x) + 7) / 8
}

// appendXOR writes the n low-order bytes of x, low-order first.
func appendXOR(buf []byte, x uint64, n int) []byte {
	for i := range n {
		buf = append(buf, byte(x>>(8*i)))
	}
	return buf
}

// ApplyCheckpointDelta folds delta, written by EncodeDelta, onto base and
// returns the state it encodes; base is left as it is. A delta written
// against another state — another checkpoint target, walker count, size or
// type shape — is an error, as is one that does not parse or whose result
// DecodeEnsembleState would refuse as a full blob (a non-finite accumulator
// value, a negative window count, an invalid walk state). Allocation is
// bounded by the base's shape and the delta's length.
func ApplyCheckpointDelta(base *EnsembleState, delta []byte) (*EnsembleState, error) {
	d := &wire.Cursor{Data: delta}
	if string(d.Bytes(len(deltaMagic))) != deltaMagic {
		return nil, fmt.Errorf("core: checkpoint delta: bad magic")
	}
	if version := d.Uvarint(); d.Err == nil && version != deltaVersion {
		return nil, fmt.Errorf("core: checkpoint delta: unsupported format version %d (have %d)", version, deltaVersion)
	}
	if at := d.Varint(); d.Err == nil && at != int64(base.WindowsDone) {
		return nil, fmt.Errorf("core: checkpoint delta: written against the state at %d windows, base stands at %d", at, base.WindowsDone)
	}
	st := &EnsembleState{Config: base.Config}
	st.Config.Sizes = slices.Clone(base.Config.Sizes)
	st.WindowsDone = base.WindowsDone + int(d.Varint())
	if n := d.Uvarint(); d.Err == nil && n != uint64(len(base.Walkers)) {
		return nil, fmt.Errorf("core: checkpoint delta: %d walkers, base has %d", n, len(base.Walkers))
	}
	if d.Err == nil {
		st.Walkers = make([]WalkerState, len(base.Walkers))
		for i := range st.Walkers {
			if d.Err != nil {
				break
			}
			st.Walkers[i].applyDelta(d, &base.Walkers[i], st.Config.RecoverStars)
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("core: checkpoint delta: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("core: checkpoint delta: %d trailing bytes", d.Rest())
	}
	if st.WindowsDone < 0 {
		return nil, fmt.Errorf("core: checkpoint delta: negative windows done %d", st.WindowsDone)
	}
	return st, nil
}

// applyDelta reads one walker's delta against b.
func (w *WalkerState) applyDelta(d *wire.Cursor, b *WalkerState, stars bool) {
	rng := d.Varint()
	steps := w.readWalk(d, true)
	w.Steps = b.Steps + steps
	w.RNGPos = b.RNGPos + uint64(rng+steps)
	if n := d.Uvarint(); d.Err == nil && n != uint64(len(b.Accs)) {
		d.Fail("%d accumulators, base has %d", n, len(b.Accs))
	}
	if d.Err != nil {
		return
	}
	w.Accs = make([]SizeAcc, len(b.Accs))
	for j := range w.Accs {
		w.Accs[j].applyDelta(d, &b.Accs[j], steps)
	}
	if stars {
		w.StarAcc = readXOR(d, b.StarAcc, int(d.Byte()))
	}
}

// applyDelta reads one accumulator's delta against b; steps is the walker's
// Steps difference.
func (a *SizeAcc) applyDelta(d *wire.Cursor, b *SizeAcc, steps int64) {
	done := d.Varint() + steps
	a.Done = b.Done + int(done)
	a.ValidSamples = b.ValidSamples + int(d.Varint()+done)
	nt := len(b.Weights)
	if n := d.Uvarint(); d.Err == nil && (n != uint64(nt) || len(b.TypeCounts) != nt) {
		d.Fail("type count %d, base has %d", n, nt)
	}
	if d.Err != nil || nt == 0 {
		return
	}
	bitmap := d.Bytes((nt + 7) / 8)
	if d.Err != nil {
		return
	}
	if pad := nt % 8; pad != 0 && bitmap[len(bitmap)-1]>>pad != 0 {
		d.Fail("change bit past type count %d", nt)
		return
	}
	a.Weights = slices.Clone(b.Weights)
	a.TypeCounts = slices.Clone(b.TypeCounts)
	for t := range a.Weights {
		if bitmap[t/8]&(1<<(t%8)) == 0 {
			continue
		}
		h := d.Byte()
		count := int64(h >> 4)
		if count == countInHeader {
			count = d.Varint()
		}
		a.Weights[t] = readXOR(d, b.Weights[t], int(h&15))
		a.TypeCounts[t] += count
	}
}

// readXOR reads the n XOR bytes appendXOR writes and applies them to base.
// The result must be finite, as readFloat64 requires of a full blob.
func readXOR(d *wire.Cursor, base float64, n int) float64 {
	if d.Err == nil && n > 8 {
		d.Fail("XOR of %d bytes", n)
	}
	if d.Err != nil {
		return 0
	}
	var x uint64
	for i, c := range d.Bytes(n) {
		x |= uint64(c) << (8 * i)
	}
	f := math.Float64frombits(math.Float64bits(base) ^ x)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.Fail("non-finite accumulator value")
	}
	return f
}
