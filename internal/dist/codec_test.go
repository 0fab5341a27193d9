package dist

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func sampleAssignments() []*Assignment {
	return []*Assignment{
		{
			Graph: "ba-1m",
			Meta:  GraphMeta{Nodes: 200_000, Edges: 999_975, MaxDegree: 2781},
			Multi: &core.MultiConfig{
				Sizes: []int{4}, D: 2, CSS: true, NB: true, RecoverStars: false,
				BurnIn: 10, Walkers: 6, Seed: -7,
			},
			Budget: 20_000, Every: 500, Lo: 2, Hi: 4,
		},
		{
			Graph: "g",
			Meta:  GraphMeta{Nodes: 10, Edges: 9, MaxDegree: 3},
			Multi: &core.MultiConfig{
				Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 4, Seed: 41,
			},
			Budget: 2000, Every: 500, Lo: 0, Hi: 4,
			Resume: []byte("opaque-state-blob"),
		},
		{
			Graph:  "tiny",
			Multi:  &core.MultiConfig{Sizes: []int{3}, D: 1, Seed: 17},
			Budget: 1, Every: 0, Lo: 0, Hi: 1,
		},
		{
			Graph: "stars",
			Meta:  GraphMeta{Nodes: 250, Edges: 800, MaxDegree: 14},
			Multi: &core.MultiConfig{
				Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 25, Walkers: 4, Seed: 9,
			},
			Budget: 3000, Every: 500, Lo: 2, Hi: 4,
		},
	}
}

func TestAssignmentRoundTrip(t *testing.T) {
	for _, a := range sampleAssignments() {
		got, err := DecodeAssignment(a.Encode())
		if err != nil {
			t.Fatalf("%s: %v", a.Graph, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", a.Graph, got, a)
		}
	}
}

// TestAssignmentV1Decodes: the committed GDPA version 1 inputs — one per
// layout an older coordinator wrote — still decode, each to its Multi config
// with its resume bytes intact.
func TestAssignmentV1Decodes(t *testing.T) {
	for file, want := range map[string]core.MultiConfig{
		"single-stars-burnin-no-resume": {Sizes: []int{4}, D: 1, RecoverStars: true, BurnIn: 37, Walkers: 2, Seed: 5},
		"single-with-gest1-resume":      {Sizes: []int{4}, D: 2, CSS: true, Walkers: 3, Seed: 14},
		"multi-with-gmst1-resume":       {Sizes: []int{3, 4, 5}, D: 2, CSS: true, Walkers: 2, Seed: 21},
	} {
		t.Run(file, func(t *testing.T) {
			data := readCorpusEntry(t, filepath.Join("testdata", "fuzz", "FuzzDecodeAssignment", file))
			if !bytes.HasPrefix(data, []byte(asnMagic+"\x01")) {
				t.Fatalf("input is not GDPA version 1: % x", data[:5])
			}
			a, err := DecodeAssignment(data)
			if err != nil {
				t.Fatal(err)
			}
			if a.Multi == nil || !reflect.DeepEqual(*a.Multi, want) {
				t.Fatalf("decoded multi %+v; want %+v", a.Multi, want)
			}
			if strings.HasSuffix(file, "no-resume") {
				if a.Resume != nil {
					t.Errorf("resume of %d bytes, want none", len(a.Resume))
				}
				return
			}
			// The resume blob is the input's tail, carried verbatim, and it is a
			// state of the same config.
			if len(a.Resume) == 0 || !bytes.HasSuffix(data, a.Resume) {
				t.Fatalf("resume of %d bytes is not the input's tail", len(a.Resume))
			}
			st, err := core.DecodeEnsembleState(a.Resume)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Config, want) || len(st.Walkers) != a.Hi-a.Lo {
				t.Errorf("resume state of config %+v with %d walkers, want %+v with %d",
					st.Config, len(st.Walkers), want, a.Hi-a.Lo)
			}
		})
	}
}

// readCorpusEntry reads the one []byte value of a "go test fuzz v1" file.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(value, "[]byte(")
	if header != "go test fuzz v1" || !ok {
		t.Fatalf("%s: not a one-value fuzz corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

func TestAssignmentRejects(t *testing.T) {
	base := *sampleAssignments()[0]
	for name, mutate := range map[string]func(*Assignment){
		"no graph":         func(a *Assignment) { a.Graph = "" },
		"no config":        func(a *Assignment) { a.Multi = nil },
		"zero budget":      func(a *Assignment) { a.Budget = 0 },
		"negative every":   func(a *Assignment) { a.Every = -1 },
		"negative lo":      func(a *Assignment) { a.Lo = -1 },
		"hi past walkers":  func(a *Assignment) { a.Hi = 7 },
		"empty partition":  func(a *Assignment) { a.Lo, a.Hi = 3, 3 },
		"inverted bounds":  func(a *Assignment) { a.Lo, a.Hi = 4, 2 },
		"invalid config":   func(a *Assignment) { a.Multi = &core.MultiConfig{Sizes: []int{6}, D: 2, Walkers: 6} },
		"walkers past cap": func(a *Assignment) { a.Multi = &core.MultiConfig{Sizes: []int{4}, D: 2, Walkers: 1<<16 + 1} },
	} {
		a := base
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if a.Multi != nil { // encodable shape
			if _, err := DecodeAssignment(a.Encode()); err == nil {
				t.Errorf("%s: DecodeAssignment accepted", name)
			}
		}
	}

	enc := base.Encode()
	if _, err := DecodeAssignment(enc[:len(enc)-1]); err == nil {
		t.Error("truncated assignment accepted")
	}
	if _, err := DecodeAssignment(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeAssignment(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Kind: FrameSnapshot, Target: 500, State: []byte{1, 2, 3}},
		{Kind: FrameFinal, Target: 20_000, State: bytes.Repeat([]byte{9}, 1000)},
		{Kind: FrameError, Msg: "walker 3: neighbor fetch failed"},
	}
	for _, f := range frames {
		got, err := DecodeFrame(f.Encode())
		if err != nil {
			t.Fatalf("kind %d: %v", f.Kind, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("kind %d: round trip mismatch", f.Kind)
		}
	}

	// Stream framing: all frames back through one reader, then clean EOF.
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream round trip mismatch for kind %d", want.Kind)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Errorf("exhausted stream: got %v, want io.EOF", err)
	}
	// A truncated stream must not read as a clean end.
	trunc := bufio.NewReader(bytes.NewReader([]byte{200, 1, 'G', 'D'}))
	if _, err := ReadFrame(trunc); err == nil || err == io.EOF {
		t.Errorf("truncated stream: got %v, want hard error", err)
	}
}

func TestFrameRejects(t *testing.T) {
	for name, f := range map[string]*Frame{
		"snapshot without state": {Kind: FrameSnapshot, Target: 5},
		"final without state":    {Kind: FrameFinal, Target: 5},
		"negative target":        {Kind: FrameSnapshot, Target: -1, State: []byte{1}},
		"error without message":  {Kind: FrameError},
		"unknown kind":           {Kind: 9, State: []byte{1}},
	} {
		if _, err := DecodeFrame(f.Encode()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeAssignment asserts the decoder never panics, never accepts an
// invalid assignment, and that accepted assignments survive a re-encode
// round trip (byte equality is too strong: varints tolerate over-long
// encodings on input while the encoder always emits minimal ones).
func FuzzDecodeAssignment(f *testing.F) {
	for _, a := range sampleAssignments() {
		f.Add(a.Encode())
	}
	f.Add([]byte("GDPA"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAssignment(data)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid assignment: %v", err)
		}
		back, err := DecodeAssignment(a.Encode())
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(back, a) {
			t.Fatal("decode/encode round trip is not stable")
		}
	})
}

// FuzzDecodeFrame asserts the frame decoder never panics and that accepted
// frames survive re-encoding, both standalone and through stream framing.
func FuzzDecodeFrame(f *testing.F) {
	f.Add((&Frame{Kind: FrameSnapshot, Target: 500, State: []byte{1}}).Encode())
	f.Add((&Frame{Kind: FrameError, Msg: "x"}).Encode())
	f.Add([]byte("GDPF"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, fr) {
			t.Fatal("stream framing round trip mismatch")
		}
	})
}
