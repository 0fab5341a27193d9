// Package dist fans one estimation job's walker ensemble across a fleet of
// graphletd workers and merges the streamed-back accumulators into a result
// byte-identical to a local run.
//
// The unit of work is a partition: a contiguous global walker range [Lo, Hi)
// of the job's ensemble, with seeds and window quotas derived at their
// global indices (core.NewPartitionEstimator), so where a walker runs never
// changes what it computes. A coordinator (coordinator.go) posts one
// Assignment per partition to a worker's POST /v1/partitions endpoint
// (worker.go); the worker streams Frames back — a snapshot of the
// partition's core.EnsembleState at every checkpoint barrier, then a final
// frame with the terminal state. The coordinator re-combines
// partition states in walker-index order (core.CombinePartitionStates), so
// the merged result keeps the exact float addition sequence of a local run.
// Snapshots double as failover state: a dead worker's partition resumes on a
// peer (or locally) from its last streamed frame, costing only the
// un-checkpointed tail.
//
// This file defines the two wire formats, in the same style as the core
// state codecs: versioned magic, varints (zigzag for signed), packed flag
// bytes whose unknown high bits are rejected, and bounds-checked decoding —
// truncated, corrupt or adversarial input produces an error, never a panic
// or an absurd allocation. (The embedded resume/state blobs are core codecs,
// which additionally reject NaN/Inf accumulator values.)
package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// GraphMeta fingerprints the topology an assignment is meant to run on: the
// worker refuses an assignment whose fingerprint disagrees with its local
// binding of the graph name, so a fleet with divergent registrations fails
// loudly instead of merging walks over different graphs.
type GraphMeta struct {
	Nodes     int
	Edges     int64
	MaxDegree int
}

// Assignment is the coordinator-to-worker order for one partition.
type Assignment struct {
	// Graph names the registered graph to walk; Meta is the coordinator's
	// fingerprint of it.
	Graph string
	Meta  GraphMeta

	// Exactly one of Single/Multi is set: the job's full engine
	// configuration (including the global walker count and seed). The two
	// fields are the wire shape (a job submitted with k travels as Single,
	// one submitted with sizes as Multi); the engine behind them is one, and
	// config returns what it runs.
	Single *core.Config
	Multi  *core.MultiConfig

	// Budget is the job's global window budget n; Every the checkpoint
	// spacing (a snapshot frame streams at every multiple). The partition
	// runs its walkers' share of each global target.
	Budget int
	Every  int

	// Lo, Hi delimit the partition's walker range [Lo, Hi) in global
	// indices.
	Lo, Hi int

	// Resume optionally carries an encoded partition state (a
	// core.EnsembleState restricted to [Lo, Hi)) to restore before running —
	// the failover and coordinator-crash-recovery path.
	Resume []byte
}

const (
	asnMagic   = "GDPA"
	asnVersion = 1

	frameMagic   = "GDPF"
	frameVersion = 1

	// Decode-side sanity caps.
	maxGraphName = 4096
	maxBlobBytes = 1 << 26 // resume / state payloads
	maxMsgBytes  = 4096
	maxSizes     = 16
)

// config returns the engine configuration the assignment carries: Multi as
// it stands, Single as its one-size case. Zero when neither is set, which
// Validate rejects.
func (a *Assignment) config() core.MultiConfig {
	switch {
	case a.Multi != nil:
		return *a.Multi
	case a.Single != nil:
		c := a.Single
		return core.MultiConfig{
			Sizes: []int{c.K}, D: c.D, CSS: c.CSS, NB: c.NB,
			RecoverStars: c.RecoverStars, BurnIn: c.BurnIn,
			Walkers: c.Walkers, Seed: c.Seed,
		}
	}
	return core.MultiConfig{}
}

// Walkers returns the global walker count of the assignment's ensemble.
func (a *Assignment) Walkers() int {
	return max(a.config().Walkers, 1)
}

// Validate checks the assignment's structural invariants (the engine configs
// validate themselves when the estimator is built).
func (a *Assignment) Validate() error {
	if a.Graph == "" {
		return fmt.Errorf("dist: assignment names no graph")
	}
	if (a.Single == nil) == (a.Multi == nil) {
		return fmt.Errorf("dist: assignment must set exactly one of single/multi config")
	}
	if a.Multi != nil && (a.Multi.RecoverStars || a.Multi.BurnIn != 0) {
		// The Multi wire layout has no room for them, and dropping them in
		// Encode would run a different job than the one assigned.
		return fmt.Errorf("dist: RecoverStars and BurnIn travel only in a single config")
	}
	if a.Budget <= 0 {
		return fmt.Errorf("dist: non-positive budget %d", a.Budget)
	}
	if a.Every < 0 {
		return fmt.Errorf("dist: negative checkpoint spacing %d", a.Every)
	}
	if w := a.Walkers(); a.Lo < 0 || a.Hi > w || a.Lo >= a.Hi {
		return fmt.Errorf("dist: partition [%d,%d) out of range for %d walkers", a.Lo, a.Hi, w)
	}
	return nil
}

// Encode renders the assignment as a versioned binary blob — the request
// body of POST /v1/partitions.
func (a *Assignment) Encode() []byte {
	buf := make([]byte, 0, 128+len(a.Resume))
	buf = append(buf, asnMagic...)
	buf = binary.AppendUvarint(buf, asnVersion)
	buf = binary.AppendUvarint(buf, uint64(len(a.Graph)))
	buf = append(buf, a.Graph...)
	buf = binary.AppendVarint(buf, int64(a.Meta.Nodes))
	buf = binary.AppendVarint(buf, a.Meta.Edges)
	buf = binary.AppendVarint(buf, int64(a.Meta.MaxDegree))
	buf = append(buf, packBools(a.Multi != nil, len(a.Resume) > 0))
	if a.Single != nil {
		c := a.Single
		buf = binary.AppendVarint(buf, int64(c.K))
		buf = binary.AppendVarint(buf, int64(c.D))
		buf = append(buf, packBools(c.CSS, c.NB, c.RecoverStars))
		buf = binary.AppendVarint(buf, int64(c.BurnIn))
		buf = binary.AppendVarint(buf, int64(c.Walkers))
		buf = binary.AppendVarint(buf, c.Seed)
	} else {
		c := a.Multi
		buf = binary.AppendUvarint(buf, uint64(len(c.Sizes)))
		for _, k := range c.Sizes {
			buf = binary.AppendVarint(buf, int64(k))
		}
		buf = binary.AppendVarint(buf, int64(c.D))
		buf = append(buf, packBools(c.CSS, c.NB))
		buf = binary.AppendVarint(buf, int64(c.Walkers))
		buf = binary.AppendVarint(buf, c.Seed)
	}
	buf = binary.AppendVarint(buf, int64(a.Budget))
	buf = binary.AppendVarint(buf, int64(a.Every))
	buf = binary.AppendVarint(buf, int64(a.Lo))
	buf = binary.AppendVarint(buf, int64(a.Hi))
	if len(a.Resume) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(a.Resume)))
		buf = append(buf, a.Resume...)
	}
	return buf
}

// DecodeAssignment parses a blob produced by Assignment.Encode.
func DecodeAssignment(data []byte) (*Assignment, error) {
	d := &decoder{data: data}
	if string(d.bytes(len(asnMagic))) != asnMagic {
		return nil, fmt.Errorf("dist: assignment: bad magic")
	}
	if v := d.uvarint(); d.err == nil && v != asnVersion {
		return nil, fmt.Errorf("dist: assignment: unsupported format version %d (have %d)", v, asnVersion)
	}
	a := &Assignment{}
	a.Graph = d.str(maxGraphName)
	a.Meta.Nodes = int(d.varint())
	a.Meta.Edges = d.varint()
	a.Meta.MaxDegree = int(d.varint())
	multi, hasResume := d.bools2()
	if multi {
		c := &core.MultiConfig{}
		n := d.uvarint()
		if d.err == nil && (n == 0 || n > maxSizes) {
			return nil, fmt.Errorf("dist: assignment: %d sizes out of range", n)
		}
		if d.err == nil {
			c.Sizes = make([]int, n)
			for i := range c.Sizes {
				c.Sizes[i] = int(d.varint())
			}
		}
		c.D = int(d.varint())
		c.CSS, c.NB = d.bools2()
		c.Walkers = int(d.varint())
		c.Seed = d.varint()
		a.Multi = c
	} else {
		c := &core.Config{}
		c.K = int(d.varint())
		c.D = int(d.varint())
		c.CSS, c.NB, c.RecoverStars = d.bools3()
		c.BurnIn = int(d.varint())
		c.Walkers = int(d.varint())
		c.Seed = d.varint()
		a.Single = c
	}
	a.Budget = int(d.varint())
	a.Every = int(d.varint())
	a.Lo = int(d.varint())
	a.Hi = int(d.varint())
	if hasResume {
		a.Resume = d.blob(maxBlobBytes)
		if d.err == nil && len(a.Resume) == 0 {
			return nil, fmt.Errorf("dist: assignment: resume flag set without payload")
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("dist: assignment: %w", d.err)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("dist: assignment: %d trailing bytes", len(d.data)-d.off)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// FrameKind tags a streamed frame.
type FrameKind uint8

const (
	// FrameSnapshot carries the partition's state at an intermediate
	// checkpoint target — failover and coordinator-journal fuel.
	FrameSnapshot FrameKind = 1
	// FrameFinal carries the partition's terminal state at the full budget;
	// it ends a successful stream.
	FrameFinal FrameKind = 2
	// FrameError reports a worker-side failure (Msg); it ends the stream.
	FrameError FrameKind = 3
)

// Frame is one element of the worker-to-coordinator response stream.
type Frame struct {
	Kind   FrameKind
	Target int    // global checkpoint target the state was captured at
	State  []byte // encoded partition core.EnsembleState
	Msg    string // error detail (FrameError only)
}

// Encode renders the frame as a standalone versioned blob.
func (f *Frame) Encode() []byte {
	buf := make([]byte, 0, 32+len(f.State)+len(f.Msg))
	buf = append(buf, frameMagic...)
	buf = binary.AppendUvarint(buf, frameVersion)
	buf = append(buf, byte(f.Kind))
	buf = binary.AppendVarint(buf, int64(f.Target))
	buf = binary.AppendUvarint(buf, uint64(len(f.State)))
	buf = append(buf, f.State...)
	buf = binary.AppendUvarint(buf, uint64(len(f.Msg)))
	buf = append(buf, f.Msg...)
	return buf
}

// DecodeFrame parses a blob produced by Frame.Encode.
func DecodeFrame(data []byte) (*Frame, error) {
	d := &decoder{data: data}
	if string(d.bytes(len(frameMagic))) != frameMagic {
		return nil, fmt.Errorf("dist: frame: bad magic")
	}
	if v := d.uvarint(); d.err == nil && v != frameVersion {
		return nil, fmt.Errorf("dist: frame: unsupported format version %d (have %d)", v, frameVersion)
	}
	f := &Frame{}
	f.Kind = FrameKind(d.byte())
	f.Target = int(d.varint())
	f.State = d.blob(maxBlobBytes)
	f.Msg = d.str(maxMsgBytes)
	if d.err != nil {
		return nil, fmt.Errorf("dist: frame: %w", d.err)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("dist: frame: %d trailing bytes", len(d.data)-d.off)
	}
	switch f.Kind {
	case FrameSnapshot, FrameFinal:
		if len(f.State) == 0 {
			return nil, fmt.Errorf("dist: frame: %d carries no state", f.Kind)
		}
		if f.Target < 0 {
			return nil, fmt.Errorf("dist: frame: negative target %d", f.Target)
		}
	case FrameError:
		if f.Msg == "" {
			return nil, fmt.Errorf("dist: error frame carries no message")
		}
	default:
		return nil, fmt.Errorf("dist: frame: unknown kind %d", f.Kind)
	}
	return f, nil
}

// packBools mirrors the core state codec's flag byte.
func packBools(bs ...bool) byte {
	var b byte
	for i, v := range bs {
		if v {
			b |= 1 << uint(i)
		}
	}
	return b
}

// decoder is a bounds-checked cursor over an encoded blob; the first failure
// sticks and every later read returns zero values.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.data) {
		d.fail("truncated at offset %d", d.off)
		return make([]byte, max(n, 0))
	}
	out := d.data[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) byte() byte { return d.bytes(1)[0] }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// blob reads a length-prefixed byte string, copying out of the input so the
// result outlives the request buffer.
func (d *decoder) blob(cap int) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(cap) {
		d.fail("payload of %d bytes exceeds cap", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.bytes(int(n))...)
}

func (d *decoder) str(cap int) string { return string(d.blob(cap)) }

// bools2/bools3 read a flag byte, rejecting unknown high bits (they would
// belong to a format this decoder does not understand).
func (d *decoder) bools2() (bool, bool) {
	b := d.byte()
	if b&^byte(3) != 0 {
		d.fail("unknown flag bits 0x%02x", b)
	}
	return b&1 != 0, b&2 != 0
}

func (d *decoder) bools3() (bool, bool, bool) {
	b := d.byte()
	if b&^byte(7) != 0 {
		d.fail("unknown flag bits 0x%02x", b)
	}
	return b&1 != 0, b&2 != 0, b&4 != 0
}
