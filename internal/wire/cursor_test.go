package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// uv and sv spell varints in the table below.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func sv(v int64) []byte  { return binary.AppendVarint(nil, v) }

// overlong is eleven continuation bytes: no 64-bit varint is that long.
var overlong = bytes.Repeat([]byte{0xff}, 11)

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestCursor runs every Cursor method against the inputs a decoder meets:
// an exact fit, one byte short, a length prefix over its cap, an overlong
// varint, unknown flag bits, and a read after an earlier failure. Each row
// reads through a fresh cursor and renders what it got; expected is that
// rendering, err the substring the sticky error must carry ("" for none),
// off where the cursor must stand afterwards. No read may allocate more than
// allocCap bytes, whatever length its input claims.
func TestCursor(t *testing.T) {
	const allocCap = 1 << 10
	tcs := []struct {
		name     string
		data     []byte
		read     func(c *Cursor) string
		expected string
		err      string
		off      int
	}{
		{
			name:     "Bytes exact fit",
			data:     []byte("GMST"),
			read:     func(c *Cursor) string { return string(c.Bytes(4)) },
			expected: "GMST",
			off:      4,
		},
		{
			name:     "Bytes one short yields zeros of the asked width",
			data:     []byte("GMS"),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Bytes(4)) },
			expected: "[0 0 0 0]",
			err:      "truncated at offset 0",
		},
		{
			name:     "Bytes negative width",
			data:     []byte("GMST"),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Bytes(-1)) },
			expected: "[]",
			err:      "truncated at offset 0",
		},
		{
			name:     "Bytes aliases the input",
			data:     []byte("ab"),
			read:     func(c *Cursor) string { b := c.Bytes(2); c.Data[0] = 'X'; return string(b) },
			expected: "Xb",
			off:      2,
		},
		{
			name:     "Byte exact fit",
			data:     []byte{7},
			read:     func(c *Cursor) string { return fmt.Sprint(c.Byte()) },
			expected: "7",
			off:      1,
		},
		{
			name:     "Byte on empty input",
			read:     func(c *Cursor) string { return fmt.Sprint(c.Byte()) },
			expected: "0",
			err:      "truncated at offset 0",
		},
		{
			name:     "Uvarint exact fit",
			data:     uv(300),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Uvarint()) },
			expected: "300",
			off:      2,
		},
		{
			name:     "Uvarint one short",
			data:     uv(300)[:1],
			read:     func(c *Cursor) string { return fmt.Sprint(c.Uvarint()) },
			expected: "0",
			err:      "bad varint at offset 0",
		},
		{
			name:     "Uvarint overflow",
			data:     overlong,
			read:     func(c *Cursor) string { return fmt.Sprint(c.Uvarint()) },
			expected: "0",
			err:      "bad varint at offset 0",
		},
		{
			name:     "Uvarint max",
			data:     uv(1<<64 - 1),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Uvarint()) },
			expected: "18446744073709551615",
			off:      10,
		},
		{
			name:     "Varint exact fit",
			data:     sv(-300),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Varint()) },
			expected: "-300",
			off:      2,
		},
		{
			name:     "Varint one short",
			data:     sv(-300)[:1],
			read:     func(c *Cursor) string { return fmt.Sprint(c.Varint()) },
			expected: "0",
			err:      "bad varint at offset 0",
		},
		{
			name:     "Varint overflow",
			data:     overlong,
			read:     func(c *Cursor) string { return fmt.Sprint(c.Varint()) },
			expected: "0",
			err:      "bad varint at offset 0",
		},
		{
			name:     "Blob exact fit",
			data:     cat(uv(3), []byte("abc")),
			read:     func(c *Cursor) string { return string(c.Blob(3)) },
			expected: "abc",
			off:      4,
		},
		{
			name:     "Blob copies out of the input",
			data:     cat(uv(2), []byte("ab")),
			read:     func(c *Cursor) string { b := c.Blob(2); c.Data[1] = 'X'; return string(b) },
			expected: "ab",
			off:      3,
		},
		{
			name:     "Blob empty is nil",
			data:     uv(0),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(3) == nil) },
			expected: "true",
			off:      1,
		},
		{
			name:     "Blob one short",
			data:     cat(uv(3), []byte("ab")),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(3) == nil) },
			expected: "true",
			err:      "truncated at offset 1",
			off:      1,
		},
		{
			name:     "Blob prefix over its cap",
			data:     cat(uv(4), []byte("abcd")),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(3) == nil) },
			expected: "true",
			err:      "payload of 4 bytes exceeds cap",
			off:      1,
		},
		{
			name:     "Blob prefix far over its cap allocates nothing",
			data:     uv(1 << 62),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(1<<26) == nil) },
			expected: "true",
			err:      "exceeds cap",
			off:      9,
		},
		{
			name:     "Blob prefix at its cap over a short input allocates nothing",
			data:     cat(uv(1<<26), []byte("ab")),
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(1<<26) == nil) },
			expected: "true",
			err:      "truncated at offset 4",
			off:      4,
		},
		{
			name:     "Blob prefix overflow",
			data:     overlong,
			read:     func(c *Cursor) string { return fmt.Sprint(c.Blob(3) == nil) },
			expected: "true",
			err:      "bad varint at offset 0",
		},
		{
			name:     "Str exact fit",
			data:     cat(uv(2), []byte("hk")),
			read:     func(c *Cursor) string { return c.Str(2) },
			expected: "hk",
			off:      3,
		},
		{
			name:     "Str prefix over its cap",
			data:     cat(uv(3), []byte("hk!")),
			read:     func(c *Cursor) string { return c.Str(2) },
			expected: "",
			err:      "payload of 3 bytes exceeds cap",
			off:      1,
		},
		{
			name:     "Bools exact fit",
			data:     []byte{PackBools(true, false, true)},
			read:     func(c *Cursor) string { return fmt.Sprint(c.Bools(3)) },
			expected: "true false true",
			off:      1,
		},
		{
			name:     "Bools unknown high bit",
			data:     []byte{0b101},
			read:     func(c *Cursor) string { return fmt.Sprint(c.Bools(2)) },
			expected: "true false true",
			err:      "unknown flag bits 0x05",
			off:      1,
		},
		{
			name:     "Bools on empty input",
			read:     func(c *Cursor) string { return fmt.Sprint(c.Bools(3)) },
			expected: "false false false",
			err:      "truncated at offset 0",
		},
		{
			name: "first error sticks and later reads return zero values in place",
			data: cat(uv(9), []byte("abcdefgh"), uv(5)),
			read: func(c *Cursor) string {
				c.Blob(4) // over its cap: the failure
				b0, b1, b2 := c.Bools(3)
				return fmt.Sprintf("%v %v %v %v %v %q %v %v %v",
					c.Uvarint(), c.Varint(), c.Byte(), c.Bytes(2), c.Blob(9) == nil, c.Str(9), b0, b1, b2)
			},
			expected: `0 0 0 [0 0] true "" false false false`,
			err:      "payload of 9 bytes exceeds cap",
			off:      1,
		},
		{
			name: "Fail keeps the first message",
			data: []byte{1},
			read: func(c *Cursor) string {
				c.Fail("first %d", 1)
				c.Fail("second")
				return fmt.Sprint(c.Byte())
			},
			expected: "0",
			err:      "first 1",
		},
		{
			name: "Rest counts down to zero",
			data: cat([]byte{9}, uv(300), uv(1), []byte("z")),
			read: func(c *Cursor) string {
				r := []int{c.Rest()}
				c.Byte()
				r = append(r, c.Rest())
				c.Uvarint()
				r = append(r, c.Rest())
				c.Blob(1)
				return fmt.Sprint(append(r, c.Rest()))
			},
			expected: "[5 4 2 0]",
			off:      5,
		},
	}
	for _, tc := range tcs {
		t.Run(tc.name, func(t *testing.T) {
			c := &Cursor{Data: tc.data}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := tc.read(c)
			runtime.ReadMemStats(&after)
			if got != tc.expected {
				t.Errorf("read %q, want %q", got, tc.expected)
			}
			switch {
			case tc.err == "" && c.Err != nil:
				t.Errorf("unexpected error %v", c.Err)
			case tc.err != "" && (c.Err == nil || !strings.Contains(c.Err.Error(), tc.err)):
				t.Errorf("error %v, want one containing %q", c.Err, tc.err)
			}
			if c.Off != tc.off || c.Rest() != len(tc.data)-tc.off {
				t.Errorf("cursor at offset %d with %d left, want offset %d of %d", c.Off, c.Rest(), tc.off, len(tc.data))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > allocCap {
				t.Errorf("allocated %d bytes, want at most %d", n, allocCap)
			}
		})
	}
}

// PackBools is what Bools reads: first flag in bit 0, and a flag beyond what
// the reader asks for is an unknown bit to it.
func TestPackBools(t *testing.T) {
	tcs := []struct {
		flags    []bool
		expected byte
	}{
		{nil, 0},
		{[]bool{true}, 0b1},
		{[]bool{false, true}, 0b10},
		{[]bool{true, false, true}, 0b101},
		{[]bool{false, false, false, false, false, false, false, true}, 0x80},
	}
	for _, tc := range tcs {
		if got := PackBools(tc.flags...); got != tc.expected {
			t.Errorf("PackBools(%v) = %#b, want %#b", tc.flags, got, tc.expected)
		}
	}
}
