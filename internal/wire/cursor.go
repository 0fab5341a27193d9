// Package wire holds the decode cursor shared by the repo's versioned binary
// codecs — the core ensemble-state blobs (GMST / GEST) and the dist wire
// formats (GDPA / GDPF). They are written in one style: varints (zigzag for
// signed), packed flag bytes whose unknown high bits are rejected, and
// length prefixes checked against a cap before anything is allocated, so
// truncated, corrupt or adversarial input produces an error, never a panic
// or an absurd allocation.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Cursor is a bounds-checked read position over an encoded blob. The first
// failure sticks in Err and every later read returns zero values, so a
// decoder reads a whole layout straight through and checks Err once (or at
// the points where a decoded length is about to size an allocation).
type Cursor struct {
	Data []byte
	Off  int
	Err  error
}

// Fail records a decode error unless one is already recorded.
func (c *Cursor) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf(format, args...)
	}
}

// Rest returns the number of unread bytes; a complete decode leaves 0.
func (c *Cursor) Rest() int { return len(c.Data) - c.Off }

// Bytes reads n raw bytes, aliasing the input. On failure it returns n zero
// bytes so fixed-width callers can index the result unconditionally.
func (c *Cursor) Bytes(n int) []byte {
	if c.Err != nil || n < 0 || c.Off+n > len(c.Data) {
		c.Fail("truncated at offset %d", c.Off)
		return make([]byte, max(n, 0))
	}
	out := c.Data[c.Off : c.Off+n]
	c.Off += n
	return out
}

func (c *Cursor) Byte() byte { return c.Bytes(1)[0] }

func (c *Cursor) Uvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.Data[c.Off:])
	if n <= 0 {
		c.Fail("bad varint at offset %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

func (c *Cursor) Varint() int64 {
	if c.Err != nil {
		return 0
	}
	v, n := binary.Varint(c.Data[c.Off:])
	if n <= 0 {
		c.Fail("bad varint at offset %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

// Blob reads a length-prefixed byte string of at most limit bytes, copying
// out of the input so the result outlives the request buffer.
func (c *Cursor) Blob(limit int) []byte {
	n := c.Uvarint()
	if c.Err != nil {
		return nil
	}
	if n > uint64(limit) {
		c.Fail("payload of %d bytes exceeds cap", n)
		return nil
	}
	if n > uint64(c.Rest()) {
		// Checked here, not left to Bytes: its zero-filled failure result would
		// be limit-sized, and the copy below would double it.
		c.Fail("truncated at offset %d", c.Off)
		return nil
	}
	if n == 0 {
		return nil
	}
	return append([]byte(nil), c.Bytes(int(n))...)
}

func (c *Cursor) Str(limit int) string { return string(c.Blob(limit)) }

// Flags reads a flag byte written by PackBools with n flags. Higher bits are
// rejected: they would belong to a format this decoder does not understand.
func (c *Cursor) Flags(n int) byte {
	b := c.Byte()
	if b>>uint(n) != 0 {
		c.Fail("unknown flag bits 0x%02x", b)
	}
	return b
}

// Bools reads a flag byte of n (at most 3) flags, as Flags does, and unpacks
// it.
func (c *Cursor) Bools(n int) (b0, b1, b2 bool) {
	b := c.Flags(n)
	return b&1 != 0, b&2 != 0, b&4 != 0
}

// PackBools packs up to eight flags into one byte, first flag in bit 0.
func PackBools(bs ...bool) byte {
	var b byte
	for i, v := range bs {
		if v {
			b |= 1 << uint(i)
		}
	}
	return b
}
