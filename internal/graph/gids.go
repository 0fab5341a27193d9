package graph

// The .gids sidecar stores the dense→source node ID remap for graphs whose
// container cannot embed it — version-1 .gcsr files (whose layout is frozen)
// and any future format that wants the mapping out-of-line. Version-2 .gcsr
// files embed the mapping instead (SaveOptions.IDs); the sidecar exists so
// `graphlet-pack -keep-ids -format v1` has somewhere to put the IDs without
// breaking v1 readers.
//
// Layout (little-endian): magic "GIDS" (4), format version 1 (4), n (8),
// CRC-32C of the payload (4), reserved zero (4), then n int64 source IDs.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

const (
	gidsMagic      = "GIDS"
	gidsVersion    = 1
	gidsHeaderSize = 24

	// GIDSExt is the extension appended to a graph file's path to name its
	// original-IDs sidecar ("g.gcsr" → "g.gcsr.gids").
	GIDSExt = ".gids"
)

// IDsSidecarPath returns the sidecar path for a graph file.
func IDsSidecarPath(graphPath string) string { return graphPath + GIDSExt }

// SaveIDs writes a dense→source ID mapping as a .gids sidecar file.
func SaveIDs(path string, ids []int64) error {
	buf := make([]byte, gidsHeaderSize+8*len(ids))
	copy(buf[0:4], gidsMagic)
	binary.LittleEndian.PutUint32(buf[4:8], gidsVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[gidsHeaderSize+8*i:], uint64(id))
	}
	binary.LittleEndian.PutUint32(buf[16:20], crc32.Checksum(buf[gidsHeaderSize:], castagnoli))
	// buf[20:24] reserved, zero.
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// LoadIDs reads a .gids sidecar file.
func LoadIDs(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ids, err := parseIDs(data)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return ids, nil
}

func parseIDs(data []byte) ([]int64, error) {
	if len(data) < gidsHeaderSize {
		return nil, fmt.Errorf("gids: file shorter than the %d-byte header", gidsHeaderSize)
	}
	if string(data[0:4]) != gidsMagic {
		return nil, fmt.Errorf("gids: bad magic %q (not a .gids file)", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != gidsVersion {
		return nil, fmt.Errorf("gids: unsupported format version %d (want %d)", v, gidsVersion)
	}
	if r := binary.LittleEndian.Uint32(data[20:24]); r != 0 {
		return nil, fmt.Errorf("gids: reserved header word %#x is not zero", r)
	}
	n := int64(binary.LittleEndian.Uint64(data[8:16]))
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("gids: ID count %d out of range", n)
	}
	if int64(len(data)) != gidsHeaderSize+8*n {
		return nil, fmt.Errorf("gids: file is %d bytes, header promises %d (file truncated?)", len(data), gidsHeaderSize+8*n)
	}
	payload := data[gidsHeaderSize:]
	stored := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.Checksum(payload, castagnoli); got != stored {
		return nil, fmt.Errorf("gids: payload checksum %08x != stored %08x (file corrupted)", got, stored)
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return ids, nil
}

// attachSidecarIDs loads path's .gids sidecar into g if one exists. A
// missing sidecar is fine (the mapping is optional); a present-but-invalid
// one is an error, because serving results in the wrong ID space is worse
// than failing the open.
func attachSidecarIDs(g *Graph, path string) error {
	side := IDsSidecarPath(path)
	if _, err := os.Stat(side); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	ids, err := LoadIDs(side)
	if err != nil {
		return err
	}
	if err := g.SetOriginalIDs(ids); err != nil {
		return fmt.Errorf("graph: %s: sidecar does not match graph: %w", side, err)
	}
	return nil
}
