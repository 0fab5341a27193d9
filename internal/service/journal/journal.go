// Package journal implements the durability layer of the estimation
// service: an append-only, CRC-checksummed, versioned record log in the
// log-structured style of LogBase — the on-disk journal is the single
// source of truth for job history, and all in-memory state (the job table,
// the warm result cache) is rebuilt by replaying it on open.
//
// The log is a directory of segment files:
//
//	<dir>/seg-00000001.wal
//	<dir>/seg-00000002.wal
//	...
//
// Appends go to the highest-numbered (active) segment; once it exceeds the
// rotation threshold a new segment is started. Each segment begins with an
// 8-byte header (magic "GJNL", little-endian uint32 format version) and
// holds a sequence of length-prefixed records:
//
//	offset  size  field
//	0       4     body length (little-endian uint32)
//	4       4     CRC-32C (Castagnoli) of the body bytes
//	8       ...   body
//
// with the body encoding one Record:
//
//	offset  size  field
//	0       1     record type
//	1       8     timestamp, unix nanoseconds (little-endian int64)
//	9       2     job-ID length (little-endian uint16)
//	11      ...   job ID bytes
//	...     ...   payload bytes (type-specific, owned by the caller)
//
// Crash tolerance: a torn append (the active segment ending mid-frame, or a
// zero-filled remainder — the signatures SIGKILL and power loss leave) is
// truncated away on Open, so the log always reopens to the longest prefix
// of intact records. Damage that is not a crash signature — a checksum or
// decode failure on a fully present frame, in any segment — fails Open or
// Replay loudly instead of silently dropping the history behind it.
//
// Compaction: Compact rewrites the log keeping only records the caller's
// filter retains, into a fresh segment numbered after all existing ones,
// then removes the old segments. If the process dies between the rename and
// the removals, replay sees the old records followed by the compacted
// copies — consumers must therefore apply records idempotently ("last
// record per job wins"), which the service's replay state machine does.
//
// Payloads are opaque here. The service's checkpoint payloads come in two
// kinds: a full ensemble snapshot, or a delta against the same job's
// previous checkpoint record, which replay folds onto it. A job's record is
// full at every 16th checkpoint target, when the writing process holds no
// previous record for the job, and after a failed append; so a job's
// checkpoints form chains of at most 16 records, each opened by a full one.
// The service's compaction filter keeps a live job's chain from its last
// full record on, so compacted copies open with a full record and the
// crash-mid-compaction replay (old records, then copies) folds to the same
// state.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Type tags a record with its job-lifecycle meaning.
type Type uint8

const (
	// TypeSubmitted records a job's admission; the payload carries the spec.
	TypeSubmitted Type = 1
	// TypeStarted records a job leaving the queue for a worker.
	TypeStarted Type = 2
	// TypeCheckpoint records a checkpoint of a running job; the payload
	// carries its ensemble state, whole or as a delta against the job's
	// previous checkpoint record.
	TypeCheckpoint Type = 3
	// TypeDone records successful completion; the payload carries the result.
	TypeDone Type = 4
	// TypeFailed records a failed run; the payload carries the error.
	TypeFailed Type = 5
	// TypeCanceled records a cancellation (queued or running).
	TypeCanceled Type = 6
)

// String renders the type for logs and errors.
func (t Type) String() string {
	switch t {
	case TypeSubmitted:
		return "submitted"
	case TypeStarted:
		return "started"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeDone:
		return "done"
	case TypeFailed:
		return "failed"
	case TypeCanceled:
		return "canceled"
	}
	return fmt.Sprintf("journal.Type(%d)", uint8(t))
}

func (t Type) valid() bool { return t >= TypeSubmitted && t <= TypeCanceled }

// Record is one journal entry. The payload is an opaque, type-specific blob
// owned by the caller. The service serializes specs, results and errors as
// JSON, and writes a checkpoint as the binary ensemble snapshot or a delta
// against the job's previous one (older daemons wrote JSON checkpoints with
// the snapshot in base64), from which replay re-derives the job's progress.
type Record struct {
	Type    Type
	Job     string
	Time    int64 // unix nanoseconds
	Payload []byte
}

const (
	segMagic      = "GJNL"
	segVersion    = 1
	segHeaderSize = 8
	frameOverhead = 8 // length + CRC prefix per record

	// maxBody guards replay against absurd allocations when a length prefix
	// is corrupted in a way the checksum cannot catch first.
	maxBody = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics is the journal's optional instrumentation surface. All fields
// are individually optional (obs metrics no-op when nil), so a caller can
// wire any subset; a nil *Metrics disables everything.
type Metrics struct {
	// Appends counts records successfully written.
	Appends *obs.Counter
	// AppendSeconds is the per-append latency distribution, including any
	// rotation and fsync the append triggered.
	AppendSeconds *obs.Histogram
	// Fsyncs counts file syncs issued (per-append under Options.Fsync, plus
	// rotations, compactions and close).
	Fsyncs *obs.Counter
	// Compactions counts completed segment-rewrite compactions.
	Compactions *obs.Counter
	// Errors counts failed appends and compactions (degraded durability).
	Errors *obs.Counter
	// Segments gauges the current on-disk segment count.
	Segments *obs.Gauge
}

// Options tunes a Log. The zero value gets production defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync forces every append to disk before returning. Off by default:
	// appends then reach the page cache immediately (surviving a process
	// crash) but not necessarily the platter (power loss may drop the tail,
	// which reopen truncates cleanly).
	Fsync bool
	// Metrics receives the log's operational counters (nil disables).
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o
}

// Log is an open journal. All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// segCount mirrors len(sealed)+1 outside the lock, so Segments never
	// blocks behind an in-flight append (which may be fsyncing a slow disk).
	segCount atomic.Int64

	mu         sync.Mutex
	active     *os.File
	activeIdx  int
	activeSize int64
	sealed     []int // sealed segment indices, ascending
	buf        []byte
}

// Open opens (creating if necessary) the journal in dir. The tail of the
// highest-numbered segment is scanned and any torn final record is truncated
// away, so the log is immediately appendable.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(idxs) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.sealed = idxs[:len(idxs)-1]
	last := idxs[len(idxs)-1]
	size, err := repairTail(l.segPath(last))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.segPath(last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l.active, l.activeIdx, l.activeSize = f, last, size
	l.setSegCountLocked()
	return l, nil
}

// segPath renders the file name of segment idx.
func (l *Log) segPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", idx))
}

// listSegments returns the segment indices present in dir, ascending. The
// name match is exact (Sscanf alone would accept trailing junk like the
// ".tmp" suffix of an interrupted compaction and then point the log at a
// segment that does not exist); stray compaction temporaries are removed —
// they are mid-rewrite state whose source segments are all still present.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".wal.tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var idx int
		if n, _ := fmt.Sscanf(name, "seg-%d.wal", &idx); n != 1 || idx <= 0 {
			continue
		}
		if fmt.Sprintf("seg-%08d.wal", idx) != name {
			continue
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// startSegment creates and activates a fresh segment with the given index.
// Caller holds l.mu (or is constructing the Log).
func (l *Log) startSegment(idx int) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	hdr := segHeader()
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	l.active, l.activeIdx, l.activeSize = f, idx, int64(len(hdr))
	l.setSegCountLocked()
	return nil
}

func segHeader() []byte {
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	return hdr
}

// repairTail validates the frames of the segment at path and truncates a
// torn final record. Only crash signatures are repaired: the file ending
// mid-frame (partial append) or a zero-filled remainder (filesystems that
// extend before writing). A checksum or decode failure on a fully present
// frame is corruption of durable history and fails the open loudly instead
// of silently discarding every record behind it. It returns the resulting
// file size.
func repairTail(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if err := checkSegHeader(path, data); err != nil {
		return 0, err
	}
	good := int64(segHeaderSize)
	off := good
	for off < int64(len(data)) {
		n, _, err := nextFrame(data, off)
		if err == nil {
			off += n
			good = off
			continue
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || allZero(data[off:]) {
			break // torn append: truncate to the last intact frame
		}
		return 0, fmt.Errorf("journal: %s: corrupt record at offset %d: %w", path, off, err)
	}
	if good < int64(len(data)) {
		if err := os.Truncate(path, good); err != nil {
			return 0, fmt.Errorf("journal: %w", err)
		}
	}
	return good, nil
}

// allZero reports whether every byte of b is zero (crash-time zero fill).
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

func checkSegHeader(path string, data []byte) error {
	if len(data) < segHeaderSize {
		return fmt.Errorf("journal: %s: shorter than the %d-byte segment header", path, segHeaderSize)
	}
	if string(data[:4]) != segMagic {
		return fmt.Errorf("journal: %s: bad magic %q", path, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return fmt.Errorf("journal: %s: unsupported format version %d (have %d)", path, v, segVersion)
	}
	return nil
}

// nextFrame decodes the frame starting at off, returning its total size and
// the record.
func nextFrame(data []byte, off int64) (int64, Record, error) {
	if off+frameOverhead > int64(len(data)) {
		return 0, Record{}, io.ErrUnexpectedEOF
	}
	bodyLen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if bodyLen > maxBody || off+frameOverhead+bodyLen > int64(len(data)) {
		return 0, Record{}, io.ErrUnexpectedEOF
	}
	wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
	body := data[off+frameOverhead : off+frameOverhead+bodyLen]
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return 0, Record{}, fmt.Errorf("journal: record checksum mismatch")
	}
	rec, err := decodeBody(body)
	if err != nil {
		return 0, Record{}, err
	}
	return frameOverhead + bodyLen, rec, nil
}

// decodeBody parses a record body.
func decodeBody(body []byte) (Record, error) {
	if len(body) < 11 {
		return Record{}, fmt.Errorf("journal: record body too short (%d bytes)", len(body))
	}
	typ := Type(body[0])
	if !typ.valid() {
		return Record{}, fmt.Errorf("journal: unknown record type %d", body[0])
	}
	t := int64(binary.LittleEndian.Uint64(body[1:9]))
	jobLen := int(binary.LittleEndian.Uint16(body[9:11]))
	if 11+jobLen > len(body) {
		return Record{}, fmt.Errorf("journal: job-ID length %d overruns record", jobLen)
	}
	rec := Record{
		Type: typ,
		Job:  string(body[11 : 11+jobLen]),
		Time: t,
	}
	if payload := body[11+jobLen:]; len(payload) > 0 {
		rec.Payload = append([]byte(nil), payload...)
	}
	return rec, nil
}

// encodeBody renders rec into l.buf (reused across appends) and returns the
// framed bytes. Caller holds l.mu.
func (l *Log) encodeBody(rec Record) ([]byte, error) {
	if len(rec.Job) > 1<<16-1 {
		return nil, fmt.Errorf("journal: job ID %d bytes long", len(rec.Job))
	}
	if !rec.Type.valid() {
		return nil, fmt.Errorf("journal: invalid record type %d", rec.Type)
	}
	bodyLen := 11 + len(rec.Job) + len(rec.Payload)
	if bodyLen > maxBody {
		return nil, fmt.Errorf("journal: record body %d bytes exceeds %d", bodyLen, maxBody)
	}
	need := frameOverhead + bodyLen
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	buf := l.buf[:need]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(bodyLen))
	body := buf[frameOverhead:]
	body[0] = byte(rec.Type)
	binary.LittleEndian.PutUint64(body[1:9], uint64(rec.Time))
	binary.LittleEndian.PutUint16(body[9:11], uint16(len(rec.Job)))
	copy(body[11:], rec.Job)
	copy(body[11+len(rec.Job):], rec.Payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(body, castagnoli))
	return buf, nil
}

// Append writes rec to the active segment, rotating first if the segment is
// over the size threshold. A zero Time is stamped with the current clock.
func (l *Log) Append(rec Record) error {
	start := time.Now()
	err := l.append(rec)
	if err != nil {
		l.opts.Metrics.Errors.Inc()
		return err
	}
	l.opts.Metrics.Appends.Inc()
	l.opts.Metrics.AppendSeconds.Observe(time.Since(start).Seconds())
	return nil
}

func (l *Log) append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return fmt.Errorf("journal: log closed")
	}
	if rec.Time == 0 {
		rec.Time = time.Now().UnixNano()
	}
	frame, err := l.encodeBody(rec)
	if err != nil {
		return err
	}
	if l.activeSize+int64(len(frame)) > l.opts.SegmentBytes && l.activeSize > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.activeSize += int64(len(frame))
	if l.opts.Fsync {
		if err := l.syncFile(l.active); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// syncFile issues (and counts) one fsync.
func (l *Log) syncFile(f *os.File) error {
	l.opts.Metrics.Fsyncs.Inc()
	return f.Sync()
}

// rotateLocked seals the active segment and starts the next one. Caller
// holds l.mu.
func (l *Log) rotateLocked() error {
	if err := l.syncFile(l.active); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.sealed = append(l.sealed, l.activeIdx)
	return l.startSegment(l.activeIdx + 1)
}

// Replay invokes fn for every record in log order (oldest segment first).
// Records appended after Replay starts are not guaranteed to be visited.
// A non-nil error from fn aborts the replay.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append(append([]int(nil), l.sealed...), l.activeIdx)
	active := l.active
	l.mu.Unlock()
	if active == nil {
		return fmt.Errorf("journal: log closed")
	}
	for _, idx := range segs {
		if err := replaySegment(l.segPath(idx), fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's records through fn.
func replaySegment(path string, fn func(Record) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := checkSegHeader(path, data); err != nil {
		return err
	}
	off := int64(segHeaderSize)
	for off < int64(len(data)) {
		n, rec, err := nextFrame(data, off)
		if err != nil {
			return fmt.Errorf("journal: %s: record at offset %d: %w", path, off, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Segments returns how many segment files the log currently spans (sealed
// plus active). Compaction policy hooks on this. It reads a mirrored count
// without taking the log's lock, so callers holding their own locks are
// never stalled behind a slow in-flight append.
func (l *Log) Segments() int {
	return int(l.segCount.Load())
}

// setSegCountLocked refreshes the lock-free segment-count mirror. Caller
// holds l.mu (or is constructing the Log).
func (l *Log) setSegCountLocked() {
	n := len(l.sealed)
	if l.active != nil {
		n++
	}
	l.segCount.Store(int64(n))
	l.opts.Metrics.Segments.Set(int64(n))
}

// Compact rewrites the log keeping only the records for which keep returns
// true. The kept records land in one fresh segment numbered after every
// existing one; the old segments are then removed. A crash mid-compaction
// leaves either the old segments (compaction not yet visible) or old and new
// both — replay then sees each kept record twice, which is safe for
// consumers that apply records idempotently.
func (l *Log) Compact(keep func(Record) bool) error {
	err := l.compact(keep)
	if err != nil {
		l.opts.Metrics.Errors.Inc()
		return err
	}
	l.opts.Metrics.Compactions.Inc()
	return nil
}

func (l *Log) compact(keep func(Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return fmt.Errorf("journal: log closed")
	}
	if err := l.syncFile(l.active); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	old := append(append([]int(nil), l.sealed...), l.activeIdx)
	var kept []Record
	for _, idx := range old {
		if err := replaySegment(l.segPath(idx), func(rec Record) error {
			if keep(rec) {
				kept = append(kept, rec)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	newIdx := l.activeIdx + 1
	tmp := l.segPath(newIdx) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	write := func() error {
		if _, err := f.Write(segHeader()); err != nil {
			return err
		}
		for _, rec := range kept {
			frame, err := l.encodeBody(rec)
			if err != nil {
				return err
			}
			if _, err := f.Write(frame); err != nil {
				return err
			}
		}
		return l.syncFile(f)
	}
	if err := write(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, l.segPath(newIdx)); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// The compacted segment is durable; retire the old ones and append to it
	// from here on.
	l.active.Close()
	for _, idx := range old {
		os.Remove(l.segPath(idx))
	}
	f, err = os.OpenFile(l.segPath(newIdx), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	l.active, l.activeIdx, l.activeSize, l.sealed = f, newIdx, st.Size(), nil
	l.setSegCountLocked()
	return nil
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.syncFile(l.active)
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	l.setSegCountLocked()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
