package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func reopen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(rec Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// Appended records replay in order with type, job, time and payload intact,
// across a close/reopen cycle.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{})
	want := []Record{
		{Type: TypeSubmitted, Job: "j-1", Time: 100, Payload: []byte(`{"spec":1}`)},
		{Type: TypeStarted, Job: "j-1", Time: 200},
		{Type: TypeCheckpoint, Job: "j-1", Time: 300, Payload: []byte(`{"steps":50}`)},
		{Type: TypeDone, Job: "j-1", Time: 400, Payload: []byte(`{"result":true}`)},
		{Type: TypeFailed, Job: "j-2", Time: 500, Payload: []byte(`{"error":"x"}`)},
		{Type: TypeCanceled, Job: "j-3", Time: 600},
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(recs []Record) {
		t.Helper()
		if len(recs) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(recs), len(want))
		}
		for i, rec := range recs {
			w := want[i]
			if rec.Type != w.Type || rec.Job != w.Job || rec.Time != w.Time || string(rec.Payload) != string(w.Payload) {
				t.Fatalf("record %d = %+v, want %+v", i, rec, w)
			}
		}
	}
	check(collect(t, l))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = reopen(t, dir, Options{})
	defer l.Close()
	check(collect(t, l))
}

// A zero Time is stamped at append.
func TestAppendStampsTime(t *testing.T) {
	l := reopen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append(Record{Type: TypeStarted, Job: "j-1"}); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l)
	if len(recs) != 1 || recs[0].Time == 0 {
		t.Fatalf("recs = %+v, want one time-stamped record", recs)
	}
}

// Appends rotate into new segments past the size threshold, and replay
// crosses segment boundaries in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{SegmentBytes: 256})
	defer l.Close()
	const n = 64
	payload := []byte(strings.Repeat("x", 40))
	for i := 0; i < n; i++ {
		if err := l.Append(Record{Type: TypeCheckpoint, Job: fmt.Sprintf("j-%d", i), Time: int64(i + 1), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 4 {
		t.Fatalf("only %d segments after %d oversized appends", segs, n)
	}
	recs := collect(t, l)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.Time != int64(i+1) {
			t.Fatalf("record %d out of order: time %d", i, rec.Time)
		}
	}
}

// A torn tail (partial frame from a crash mid-write) is truncated on open
// and the intact prefix survives; the log stays appendable.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeSubmitted, Job: fmt.Sprintf("j-%d", i), Time: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := filepath.Join(dir, "seg-00000001.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Half a frame: a plausible length prefix with no body behind it.
	var torn [6]byte
	binary.LittleEndian.PutUint32(torn[:4], 32)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l = reopen(t, dir, Options{})
	defer l.Close()
	recs := collect(t, l)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	if err := l.Append(Record{Type: TypeDone, Job: "j-9", Time: 99}); err != nil {
		t.Fatal(err)
	}
	if recs = collect(t, l); len(recs) != 4 || recs[3].Job != "j-9" {
		t.Fatalf("append after repair: %+v", recs)
	}
}

// Flipping a byte inside a fully present record is corruption, not a torn
// tail: Open must fail loudly rather than silently truncating away the
// intact records behind it. A bad segment header fails open too.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{})
	if err := l.Append(Record{Type: TypeSubmitted, Job: "j-1", Time: 1, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeDone, Job: "j-1", Time: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, "seg-00000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the first record: a complete frame with a
	// checksum mismatch, followed by an intact record — no crash signature.
	corrupt := append([]byte(nil), data...)
	corrupt[segHeaderSize+frameOverhead+12] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("open on mid-segment corruption: %v, want loud corrupt-record error", err)
	}

	if err := os.WriteFile(path, []byte("BOGUS!!!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open succeeded on a segment with a bad header")
	}
}

// A zero-filled tail (a filesystem that extended the file before the crash
// dropped the write) is a crash signature and is truncated like a torn
// frame, keeping the intact prefix.
func TestZeroFillTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeSubmitted, Job: fmt.Sprintf("j-%d", i), Time: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, "seg-00000001.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l = reopen(t, dir, Options{})
	defer l.Close()
	if recs := collect(t, l); len(recs) != 3 {
		t.Fatalf("replayed %d records after zero-fill tail, want 3", len(recs))
	}
	if err := l.Append(Record{Type: TypeDone, Job: "j-9", Time: 9}); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, l); len(recs) != 4 {
		t.Fatalf("append after zero-fill repair: %d records", len(recs))
	}
}

// A compaction temporary left by a crash mid-rewrite is cleaned up on Open
// and never mistaken for a real segment.
func TestStrayCompactionTempIgnored(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{})
	if err := l.Append(Record{Type: TypeSubmitted, Job: "j-1", Time: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// An interrupted Compact leaves the half-written target for segment 2;
	// seg-00000002.wal itself does not exist.
	tmp := filepath.Join(dir, "seg-00000002.wal.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l = reopen(t, dir, Options{})
	defer l.Close()
	if recs := collect(t, l); len(recs) != 1 || recs[0].Job != "j-1" {
		t.Fatalf("replay with stray tmp: %+v", recs)
	}
	if err := l.Append(Record{Type: TypeDone, Job: "j-1", Time: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray compaction temp not cleaned up: %v", err)
	}
}

// Compact drops filtered records, collapses the log to one segment, and the
// survivors replay identically after reopen.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l := reopen(t, dir, Options{SegmentBytes: 256})
	payload := []byte(strings.Repeat("y", 40))
	for i := 0; i < 40; i++ {
		typ := TypeCheckpoint
		if i%10 == 9 {
			typ = TypeDone
		}
		if err := l.Append(Record{Type: typ, Job: fmt.Sprintf("j-%d", i/10), Time: int64(i + 1), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 2 {
		t.Fatalf("want multiple segments before compaction, got %d", before)
	}
	if err := l.Compact(func(rec Record) bool { return rec.Type == TypeDone }); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after compact = %d, want 1", got)
	}
	recs := collect(t, l)
	if len(recs) != 4 {
		t.Fatalf("kept %d records, want 4", len(recs))
	}
	// The compacted log remains appendable and reopenable.
	if err := l.Append(Record{Type: TypeSubmitted, Job: "j-new", Time: 1000}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = reopen(t, dir, Options{})
	defer l.Close()
	recs = collect(t, l)
	if len(recs) != 5 || recs[4].Job != "j-new" {
		t.Fatalf("after reopen: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
}

// Concurrent appenders do not corrupt the log (exercised under -race).
func TestConcurrentAppend(t *testing.T) {
	l := reopen(t, t.TempDir(), Options{SegmentBytes: 512})
	defer l.Close()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(Record{Type: TypeCheckpoint, Job: fmt.Sprintf("j-%d", w), Time: int64(i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if recs := collect(t, l); len(recs) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per)
	}
}

// FuzzReplaySegment opens a journal whose one segment holds the fuzz bytes,
// both after a valid segment header and as the whole file. Open must never
// panic: it either fails loudly or truncates a torn tail, after which
// Replay succeeds, and a second Open leaves the file as it is and replays
// the same records. Seeds (two valid records, a torn tail, a zero-filled
// tail, a flipped CRC byte, a whole file) are committed under
// testdata/fuzz/FuzzReplaySegment.
func FuzzReplaySegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{append(segHeader(), data...), data} {
			dir := t.TempDir()
			path := filepath.Join(dir, "seg-00000001.wal")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				continue // failed loudly
			}
			first := collect(t, l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			l = reopen(t, dir, Options{})
			second := collect(t, l)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, repaired) {
				t.Fatalf("second Open changed the repaired segment (%d -> %d bytes, %v)", len(repaired), len(again), err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("second Open replays %d records, first replayed %d", len(second), len(first))
			}
		}
	})
}
