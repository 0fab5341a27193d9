package graph

// Binary CSR on-disk format (".gcsr"): the compact, load-instantly graph
// store behind graphlet-pack, the service registry and the dataset cache.
// An edge list is parsed once (pack time); afterwards the graph opens in
// milliseconds. Every open — mapped (OpenMapped) or read into memory
// (FromImage) — builds the graph from the file's byte image
// through one dispatcher (fromImage) and one builder per format version. A
// version-1 graph's off/adj arrays alias the image on little-endian hosts,
// which under OpenMapped means the page cache, shared across processes.
//
// Layout (all integers little-endian):
//
//	offset  size       field
//	0       4          magic "GCSR"
//	4       4          format version (currently 1)
//	8       8          n, number of nodes
//	16      8          m, number of undirected edges
//	24      8          max degree
//	32      4          CRC-32C (Castagnoli) of the payload bytes
//	36      4          reserved, zero (keeps the off array 8-byte aligned)
//	40      (n+1)*8    off array, int64
//	...     2m*4       adj array, int32
//
// The header is 40 bytes, so both arrays stay naturally aligned in a
// page-aligned mapping. Every open verifies the header invariants, the
// payload checksum (so truncation or corruption fails loudly instead of
// skewing estimates), the off prefix-sum/max-degree invariants, and per-row
// neighbor validity (in-range, strictly ascending, no self loops). Adjacency
// symmetry is the one invariant not checked at open — a per-arc reverse probe
// would cost more than the open itself; a file written by graph.Save is
// symmetric by construction, and Validate (run by graphlet-pack -verify)
// audits it for files of unknown provenance. Under OpenLCC the same row
// pass also labels the connected components (lcc.go): one union-find step
// per arc and 4 transient bytes per node, and no row is read again unless
// the graph turns out disconnected.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

const (
	gcsrMagic      = "GCSR"
	gcsrVersion    = 1
	gcsrHeaderSize = 40

	// GCSRExt is the conventional file extension of the binary format.
	GCSRExt = ".gcsr"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// gcsrHeader is the decoded fixed-size header.
type gcsrHeader struct {
	n      int64
	m      int64
	maxDeg int64
	crc    uint32
}

func (h gcsrHeader) offBytes() int64 { return (h.n + 1) * 8 }
func (h gcsrHeader) adjBytes() int64 { return 2 * h.m * 4 }

// WriteBinary writes g in the .gcsr format. The payload is streamed twice
// (checksum pass, then write pass), so no full in-memory copy is made.
func WriteBinary(w io.Writer, g *Graph) error {
	return writeBinary(w, g, hostLittleEndian())
}

// writeBinary is WriteBinary through the payload path bulk selects (see
// writePayload).
func writeBinary(w io.Writer, g *Graph, bulk bool) error {
	crc := crc32.New(castagnoli)
	if err := writePayload(crc, g, bulk); err != nil {
		return err
	}
	var hdr [gcsrHeaderSize]byte
	copy(hdr[0:4], gcsrMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], gcsrVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.m))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(g.maxDeg))
	binary.LittleEndian.PutUint32(hdr[32:36], crc.Sum32())
	// hdr[36:40] reserved, zero.
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writePayload(bw, g, bulk); err != nil {
		return err
	}
	return bw.Flush()
}

// writePayload streams the off and adj arrays as little-endian bytes, by one
// of two paths. The bulk path, for little-endian hosts, hands w each array's
// own memory as one byte view: two writes in all, which the checksum takes
// at full speed and the buffered writer passes straight through. The
// per-element path encodes each integer on its own (2.2 M small writes for
// 200 000 nodes and 1 M edges); it stays because on a big-endian host the
// memory holds the wrong byte order, the same split readInts makes on the
// read side. A block-compressed graph holds no adj array and writes its rows one
// at a time.
func writePayload(w io.Writer, g *Graph, bulk bool) error {
	if err := writeInts(w, g.off, bulk); err != nil {
		return err
	}
	if g.blocks == nil {
		return writeInts(w, g.adj, bulk)
	}
	for v := range int32(g.NumNodes()) {
		if err := writeInts(w, g.Neighbors(v), bulk); err != nil {
			return err
		}
	}
	return nil
}

// writeInts writes s as little-endian integers: as one byte view of its
// memory when bulk, else element by element.
func writeInts[T int32 | int64](w io.Writer, s []T, bulk bool) error {
	if len(s) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(s[0]))
	if bulk {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*size))
		return err
	}
	var buf [8]byte
	for _, x := range s {
		if size == 8 {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
		} else {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
		}
		if _, err := w.Write(buf[:size]); err != nil {
			return err
		}
	}
	return nil
}

// Save writes g to path in the version-1 .gcsr format, atomically. See
// SaveOpts for version selection.
func Save(path string, g *Graph) error {
	return SaveOpts(path, g, SaveOptions{})
}

// SaveOpts writes g to path in the .gcsr format selected by o, atomically
// (see writeAtomic).
func SaveOpts(path string, g *Graph, o SaveOptions) error {
	switch o.Version {
	case 0, gcsrVersion:
		if o.IDs != nil {
			return fmt.Errorf("gcsr: version 1 cannot embed original IDs (write a %s sidecar with SaveIDs)", GIDSExt)
		}
		return writeAtomic(path, func(w io.Writer) error { return WriteBinary(w, g) })
	case gcsrVersion2:
		return writeAtomic(path, func(w io.Writer) error { return WriteBinaryV2(w, g, o) })
	}
	return fmt.Errorf("gcsr: unsupported format version %d (want 1 or 2)", o.Version)
}

// writeAtomic replaces path with what write produces: the bytes go to a
// uniquely named temporary file in the same directory, are synced to disk,
// then renamed into place. A crash leaves the old file or the new one, never
// a name over unwritten pages; a reader holding the old file open or mapped
// keeps reading the old bytes; and concurrent writers of one path (e.g. two
// processes both missing the dataset cache) each write their own temp file,
// the last rename winning with a complete file either way.
func writeAtomic(path string, write func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	// The writers buffer the payload themselves; no extra layer needed.
	err = write(f)
	if err == nil {
		// os.CreateTemp makes the file 0600; restore normal create
		// permissions so other users (a daemon under a service account,
		// sibling processes sharing a cache dir) can open the packed graph.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// parseHeader decodes and sanity-checks the fixed-size header; fromImage has
// checked the magic and version.
func parseHeader(hdr []byte) (gcsrHeader, error) {
	var h gcsrHeader
	if len(hdr) < gcsrHeaderSize {
		return h, fmt.Errorf("gcsr: file shorter than the %d-byte header", gcsrHeaderSize)
	}
	h.n = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	h.m = int64(binary.LittleEndian.Uint64(hdr[16:24]))
	h.maxDeg = int64(binary.LittleEndian.Uint64(hdr[24:32]))
	h.crc = binary.LittleEndian.Uint32(hdr[32:36])
	switch {
	case h.n < 0 || h.n > math.MaxInt32:
		return h, fmt.Errorf("gcsr: node count %d out of range", h.n)
	// Bound m so offBytes()+adjBytes()+header cannot overflow int64 — a
	// lying header must produce an error, not a wrapped-negative or
	// astronomically large allocation size.
	case h.m < 0 || h.m > (math.MaxInt64-gcsrHeaderSize-h.offBytes())/8:
		return h, fmt.Errorf("gcsr: edge count %d out of range", h.m)
	case h.maxDeg < 0 || h.maxDeg > h.n:
		return h, fmt.Errorf("gcsr: max degree %d out of range for %d nodes", h.maxDeg, h.n)
	}
	return h, nil
}

// checkAdjacency verifies each neighbor row is strictly ascending, in
// range, and self-loop free — the invariants HasEdge's binary search and the
// hub bitset build depend on. O(m), after a checksum pass that already
// touched every payload byte, so a structurally invalid file from any writer
// fails loudly at open time instead of skewing estimates or panicking later.
// Each row that passes is fed to f, unless f is nil.
func checkAdjacency(off []int64, adj []int32, h gcsrHeader, f forest) error {
	for v := int64(0); v < h.n; v++ {
		row := adj[off[v]:off[v+1]]
		for i, u := range row {
			if u < 0 || int64(u) >= h.n {
				return fmt.Errorf("gcsr: node %d: neighbor %d out of range [0,%d)", v, u, h.n)
			}
			if int64(u) == v {
				return fmt.Errorf("gcsr: node %d: self loop", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("gcsr: node %d: neighbor row not strictly ascending at index %d", v, i)
			}
		}
		if f != nil {
			f.addRow(int32(v), row)
		}
	}
	return nil
}

// checkOffsets verifies the off array is a monotone prefix-sum array ending
// at 2m and that the stored max degree matches. It is O(n).
func checkOffsets(off []int64, h gcsrHeader) error {
	if off[0] != 0 {
		return fmt.Errorf("gcsr: off[0] = %d, want 0", off[0])
	}
	if off[h.n] != 2*h.m {
		return fmt.Errorf("gcsr: off[n] = %d, want 2m = %d", off[h.n], 2*h.m)
	}
	maxDeg := int64(0)
	for v := int64(0); v < h.n; v++ {
		d := off[v+1] - off[v]
		if d < 0 {
			return fmt.Errorf("gcsr: off array not monotone at node %d", v)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg != h.maxDeg {
		return fmt.Errorf("gcsr: stored max degree %d != scanned %d", h.maxDeg, maxDeg)
	}
	return nil
}

// loadImage reads a .gcsr file (either format version) into memory and
// builds the graph over that image, with its union-find forest when label
// is set (see fromImage).
func loadImage(path string, o OpenOptions, label bool) (*Graph, forest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	g, _, f, err := fromImage(data, o, label)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, f, nil
}

// OpenMapped is OpenMappedOpts with the default options.
func OpenMapped(path string) (*Graph, error) {
	return OpenMappedOpts(path, OpenOptions{})
}

// OpenMappedOpts opens a .gcsr file (either format version) over a
// read-only shared mapping where the platform has one (zero-copy for v1),
// and over the file read into memory elsewhere. A version-2 graph serves
// its rows through a bounded per-graph page cache sized by
// o.BlockCacheBytes either way. Opening makes one sequential
// checksum-and-validation pass over the raw bytes (see the format docs), so
// open time is linear in file size but a large constant factor cheaper than
// parsing an edge list — tens of milliseconds per hundred MB, served from
// the page cache on warm opens. Call Close on the returned graph to release
// the mapping; the graph must not be used afterwards.
func OpenMappedOpts(path string, o OpenOptions) (*Graph, error) {
	g, _, err := openMapped(path, o, false)
	return g, err
}

// FromImage builds a graph over a whole .gcsr image held in memory, through
// the checks every open makes. The graph may alias data (see fromImage), so
// data must stay unchanged while the graph is in use.
func FromImage(data []byte, o OpenOptions) (*Graph, error) {
	g, _, _, err := fromImage(data, o, false)
	return g, err
}

// fromImage is the one way .gcsr bytes become a Graph, whatever holds them: a
// read-only mapping (OpenMappedOpts on unix) or a file read into memory
// (loadImage, which OpenMappedOpts calls elsewhere). It
// dispatches on the format version to the one builder of each and returns
// the graph and the image offset one past its keep-resident prefix (for
// adviseMapped). A v1 graph's off/adj arrays alias data when the host allows
// (see readInts); a v2 graph serves its rows and IDs from data through the
// page cache. When label is set, the builder also feeds every row its
// validation pass reads to a union-find forest and returns it (OpenLCC's
// component labels, see lcc.go); otherwise the forest is nil.
func fromImage(data []byte, o OpenOptions, label bool) (*Graph, int, forest, error) {
	if len(data) < 8 {
		return nil, 0, nil, fmt.Errorf("gcsr: file shorter than the %d-byte header", gcsrHeaderSize)
	}
	if string(data[0:4]) != gcsrMagic {
		return nil, 0, nil, fmt.Errorf("gcsr: bad magic %q (not a .gcsr file)", data[0:4])
	}
	switch v := binary.LittleEndian.Uint32(data[4:8]); v {
	case gcsrVersion:
		return buildV1Graph(data, label)
	case gcsrVersion2:
		g, f, err := buildV2Graph(data, o, label)
		if err != nil {
			return nil, 0, nil, err
		}
		h, _ := parseV2Header(data) // buildV2Graph accepted it
		return g, int(h.blocksStart()), f, nil
	default:
		return nil, 0, nil, fmt.Errorf("gcsr: unsupported format version %d (want 1 or 2)", v)
	}
}

// buildV1Graph builds the graph over a version-1 image after checking its
// header, size, payload checksum, offsets and rows, labelling components
// in the row check when label is set.
func buildV1Graph(data []byte, label bool) (*Graph, int, forest, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, 0, nil, err
	}
	want := gcsrHeaderSize + h.offBytes() + h.adjBytes()
	if int64(len(data)) != want {
		return nil, 0, nil, fmt.Errorf("gcsr: file size %d != expected %d (n=%d, m=%d)", len(data), want, h.n, h.m)
	}
	payload := data[gcsrHeaderSize:]
	if got := crc32.Checksum(payload, castagnoli); got != h.crc {
		return nil, 0, nil, fmt.Errorf("gcsr: payload checksum %08x != stored %08x (file corrupted)", got, h.crc)
	}
	off := readInts[int64](payload[:h.offBytes()])
	if err := checkOffsets(off, h); err != nil {
		return nil, 0, nil, err
	}
	adj := readInts[int32](payload[h.offBytes():])
	var f forest
	if label {
		f = newForest(int(h.n))
	}
	if err := checkAdjacency(off, adj, h, f); err != nil {
		return nil, 0, nil, err
	}
	g := &Graph{off: off, adj: adj, m: h.m, maxDeg: int(h.maxDeg)}
	g.buildHubIndex()
	return g, gcsrHeaderSize + int(h.offBytes()), f, nil
}

// readInts reads raw as little-endian integers of type T. On a little-endian
// host, when raw starts 8-byte aligned — mappings are page-aligned, heap
// buffers of a file's size are 8-byte aligned, and .gcsr keeps every array
// aligned within its image — the result aliases raw (zero copy). Otherwise
// the integers are decoded into a heap copy, the one portable branch.
func readInts[T int32 | int64](raw []byte) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := len(raw) / size
	if n == 0 {
		return nil
	}
	if hostLittleEndian() && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		if size == 8 {
			out[i] = T(binary.LittleEndian.Uint64(raw[i*8:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint32(raw[i*4:]))
		}
	}
	return out
}

// hostLittleEndian reports whether the host stores integers little-endian,
// the precondition for reading an image's arrays in place.
func hostLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1
}
