// Package dist is the execution path of an estimation job: it runs the job's
// walker ensemble as partitions — in this process, or fanned across a fleet
// of graphletd workers — and combines their states into a result
// byte-identical to one estimator running every walker.
//
// The unit of work is a partition: a contiguous global walker range [Lo, Hi)
// of the job's ensemble, with seeds and window quotas derived at their
// global indices (core.NewPartitionMultiEstimator), so where a walker runs
// never changes what it computes. One partition runner (worker.go) executes
// it and hands out the partition's core.EnsembleState at every checkpoint
// target, the last at the full budget: the states its walkers took of
// themselves at their quotas of that target, while they walk on. A coordinator (coordinator.go) drives
// every partition of a job: with peers it posts one Assignment per partition
// to a worker's POST /v1/partitions endpoint and reads the Frames streamed
// back; without, it calls the runner directly — a local job is the one
// partition [0, W) run that way. Either way it re-combines partition states
// in walker-index order (core.CombinePartitionStates), keeping the exact
// float addition sequence of a single estimator, and reports each
// ensemble-wide checkpoint (Options.OnSync). States double as failover state:
// a dead worker's partition resumes on a peer (or in process) from its last
// streamed frame, costing only the un-checkpointed tail.
//
// States, not bytes, move through the package: one is encoded only where it
// leaves the process (a worker's Frame, a remote attempt's Assignment) and
// decoded once where it enters (the assignment at the worker, the frame at
// the coordinator).
//
// This file defines the two wire formats, in the style of the core state
// codecs and over the same cursor (internal/wire): versioned magic, varints
// (zigzag for signed), packed flag bytes whose unknown high bits are
// rejected, and bounds-checked decoding — truncated, corrupt or adversarial
// input produces an error, never a panic or an absurd allocation. (The
// embedded resume/state blobs are core codecs, which additionally reject
// NaN/Inf accumulator values.) An assignment's engine config is not spelled
// here: it travels as core's config section (core.AppendConfig /
// core.ReadConfig), the bytes a GMST version 2 or 3 state carries.
package dist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
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

	// Multi is the job's full engine configuration, including the global
	// walker count and seed. DecodeAssignment always sets it.
	Multi *core.MultiConfig
	// Single is an encode-side input folded in through core.Config.Multi.
	//
	// Deprecated: only bench/ sets it; it goes with core.Config (ROADMAP 2(d)).
	Single *core.Config

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
	// GDPA version 2 is magic, version, graph, meta, a flag byte (resume
	// present), core's config section, budget, every, lo, hi, then the resume
	// blob. Version 1 differed only in its flag byte (multi, resume present)
	// and in its config section, which was GEST version 1's for a single-size
	// job and GMST version 1's for a multi-size one; it is decode-only.
	asnMagic   = "GDPA"
	asnVersion = 2

	frameMagic   = "GDPF"
	frameVersion = 1

	// Decode-side sanity caps.
	maxGraphName = 4096
	maxBlobBytes = 1 << 26 // resume / state payloads
	maxMsgBytes  = 4096
)

// config returns the engine configuration the assignment carries: Multi as
// it stands, Single as its one-size case. Zero when neither is set, which
// Validate rejects.
func (a *Assignment) config() core.MultiConfig {
	switch {
	case a.Multi != nil:
		return *a.Multi
	case a.Single != nil:
		return a.Single.Multi()
	}
	return core.MultiConfig{}
}

// Walkers returns the global walker count of the assignment's ensemble.
func (a *Assignment) Walkers() int {
	return max(a.config().Walkers, 1)
}

// Validate checks the assignment, engine config included, so that a bad one
// is refused before anything is built.
func (a *Assignment) Validate() error {
	if a.Graph == "" {
		return fmt.Errorf("dist: assignment names no graph")
	}
	if (a.Single == nil) == (a.Multi == nil) {
		return fmt.Errorf("dist: assignment must set exactly one of single/multi config")
	}
	if err := a.config().Validate(); err != nil {
		return fmt.Errorf("dist: assignment: %w", err)
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
	buf = append(buf, wire.PackBools(len(a.Resume) > 0))
	buf = core.AppendConfig(buf, a.config())
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

// DecodeAssignment parses a blob produced by Assignment.Encode, or a version
// 1 blob of an older coordinator. The result always carries Multi.
func DecodeAssignment(data []byte) (*Assignment, error) {
	d := &wire.Cursor{Data: data}
	if string(d.Bytes(len(asnMagic))) != asnMagic {
		return nil, fmt.Errorf("dist: assignment: bad magic")
	}
	version := d.Uvarint()
	if d.Err == nil && (version < 1 || version > asnVersion) {
		return nil, fmt.Errorf("dist: assignment: unsupported format version %d (have %d)", version, asnVersion)
	}
	a := &Assignment{}
	a.Graph = d.Str(maxGraphName)
	a.Meta.Nodes = int(d.Varint())
	a.Meta.Edges = d.Varint()
	a.Meta.MaxDegree = int(d.Varint())
	layout, hasResume := core.ConfigGMST2, false
	if version == 1 {
		var multi bool
		multi, hasResume, _ = d.Bools(2)
		layout = core.ConfigGEST1
		if multi {
			layout = core.ConfigGMST1
		}
	} else {
		hasResume, _, _ = d.Bools(1)
	}
	cfg := core.ReadConfig(d, layout)
	a.Multi = &cfg
	a.Budget = int(d.Varint())
	a.Every = int(d.Varint())
	a.Lo = int(d.Varint())
	a.Hi = int(d.Varint())
	if hasResume {
		a.Resume = d.Blob(maxBlobBytes)
		if d.Err == nil && len(a.Resume) == 0 {
			return nil, fmt.Errorf("dist: assignment: resume flag set without payload")
		}
	}
	if d.Err != nil {
		return nil, fmt.Errorf("dist: assignment: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("dist: assignment: %d trailing bytes", d.Rest())
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
	d := &wire.Cursor{Data: data}
	if string(d.Bytes(len(frameMagic))) != frameMagic {
		return nil, fmt.Errorf("dist: frame: bad magic")
	}
	if v := d.Uvarint(); d.Err == nil && v != frameVersion {
		return nil, fmt.Errorf("dist: frame: unsupported format version %d (have %d)", v, frameVersion)
	}
	f := &Frame{}
	f.Kind = FrameKind(d.Byte())
	f.Target = int(d.Varint())
	f.State = d.Blob(maxBlobBytes)
	f.Msg = d.Str(maxMsgBytes)
	if d.Err != nil {
		return nil, fmt.Errorf("dist: frame: %w", d.Err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("dist: frame: %d trailing bytes", d.Rest())
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
