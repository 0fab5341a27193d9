package graph

// Binary CSR on-disk format, version 2: block-compressed adjacency.
//
// Version 1 (gcsr.go) stores the off/adj arrays raw so the mmap path can
// alias them zero-copy — at ~4 bytes per arc plus 8 bytes per node, the
// dominant disk and page-cache cost once a node hosts many registered
// graphs. Version 2 halves that: sorted neighbor rows are delta+varint
// encoded into fixed-target-size blocks (DefaultBlockBytes of encoded rows),
// each carrying its own CRC-32C, with a block index mapping contiguous node
// ranges to block extents. A block is the unit of I/O and checksumming; reads
// go through a bounded cache of pages (blockcache.go) — runs of whole rows of
// about 8 KiB encoded, cut inside each block when the file is opened. The
// page is what a miss verifies, and what is cached and evicted; a row is
// decoded on its first read from a cached page, into 1 KiB slabs the page
// opens as it needs them. A miss costs a block CRC and an index of the
// page's rows, and no decoding; a page is charged against the cache budget
// for that index and for the slabs its first reads opened, so the budget
// holds the rows walks read, not whole pages. Warm walk steps stay
// allocation-free. The degree/off array is reconstructed on the heap at open
// time so Degree stays O(1).
//
// Layout (all integers little-endian):
//
//	offset  size            field
//	0       4               magic "GCSR"
//	4       4               format version (2)
//	8       8               n, number of nodes
//	16      8               m, number of undirected edges
//	24      8               max degree
//	32      8               number of blocks
//	40      4               flags (bit 0: original-IDs section present)
//	44      4               CRC-32C of the metadata tail (index + IDs sections)
//	48      numBlocks*32    block index (see below)
//	...     n*8             original IDs, int64 (only with flag bit 0)
//	...     ...             block region: concatenated encoded blocks
//
// Block index entry (32 bytes): firstNode u32, nodeCount u32, arcCount u32,
// blockCRC u32, fileOffset u64, encodedLen u32, reserved u32 (zero). Blocks
// cover contiguous node ranges starting at node 0 and their extents tile the
// block region exactly (no gaps, no trailing bytes), which parseV2 enforces.
//
// Row encoding, per node v of a block, in node order:
//
//	uvarint(degree)
//	uvarint(first neighbor)            — absolute value
//	uvarint(gap-1) per later neighbor  — rows are strictly ascending, so
//	                                     every gap is >= 1
//
// Integrity contract: no row is served from bytes other than the ones a
// block CRC verified, and every row served passed the open-time checks. The
// metadata tail CRC is verified at open, and so is every block's CRC, in the
// validation sweep that decodes every row once, so a corrupt file fails
// loudly at open, not mid-walk. A page miss verifies its whole block's CRC
// again, recording the running CRC state every 256 bytes of the page; a
// row's first read re-runs the CRC over the chunks it covers against those
// states, then decodes it through decodeRow's checks (bounded varints, the
// open-time degree, neighbors in range, strictly ascending and not the node
// itself, the row ending where the next begins). A mismatch at either point
// means the backing file changed after open, and the read panics. A row
// decoded once is served from memory until its page is evicted.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	gcsrVersion2     = 2
	gcsrV2HeaderSize = 48
	gcsrV2IndexEntry = 32

	gcsrV2FlagIDs    = 1 << 0
	gcsrV2KnownFlags = gcsrV2FlagIDs

	// DefaultBlockBytes is the target encoded size of one adjacency block,
	// the unit of I/O and checksumming: large enough to amortize the
	// per-block index entry and CRC. It does not set read granularity — an
	// opened graph caches pages cut inside each block and decodes rows
	// one by one (blockcache.go); a miss verifies the whole block's CRC.
	DefaultBlockBytes = 64 << 10

	// DefaultBlockCacheBytes bounds the page cache of one opened v2 graph
	// (the resident pages' indexes and decoded rows) when
	// OpenOptions.BlockCacheBytes is zero.
	DefaultBlockCacheBytes = 64 << 20
)

// SaveOptions selects the on-disk encoding written by SaveOpts.
type SaveOptions struct {
	// Version is the .gcsr format version: 0 or 1 write version 1 (raw
	// arrays, zero-copy mmap), 2 writes the block-compressed version 2.
	Version int
	// BlockBytes is the target encoded block size for version 2 (0 means
	// DefaultBlockBytes). A single row larger than the target becomes its
	// own oversized block; rows never split across blocks.
	BlockBytes int
	// IDs, when non-nil, is the dense→original node ID mapping embedded as
	// the version-2 original-IDs section. len(IDs) must equal NumNodes.
	// Version 1 cannot embed IDs — write a sidecar with SaveIDs instead.
	IDs []int64
}

// gcsrV2Header is the decoded fixed-size version-2 header.
type gcsrV2Header struct {
	n         int64
	m         int64
	maxDeg    int64
	numBlocks int64
	flags     uint32
	metaCRC   uint32
}

func (h gcsrV2Header) indexBytes() int64 { return h.numBlocks * gcsrV2IndexEntry }
func (h gcsrV2Header) idsBytes() int64 {
	if h.flags&gcsrV2FlagIDs != 0 {
		return h.n * 8
	}
	return 0
}
func (h gcsrV2Header) idsStart() int64    { return gcsrV2HeaderSize + h.indexBytes() }
func (h gcsrV2Header) blocksStart() int64 { return h.idsStart() + h.idsBytes() }

// blockMeta is one decoded block-index entry.
type blockMeta struct {
	first  int32
	count  int32
	arcs   int32
	crc    uint32
	off    int64 // absolute file offset of the encoded block
	encLen int32
}

// v2Layout is the parsed and validated skeleton of a version-2 file:
// everything except the block payloads themselves.
type v2Layout struct {
	h     gcsrV2Header
	metas []blockMeta
}

// WriteBinaryV2 writes g in the version-2 block-compressed format.
func WriteBinaryV2(w io.Writer, g *Graph, o SaveOptions) error {
	blockBytes := o.BlockBytes
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	n := g.NumNodes()
	if o.IDs != nil && len(o.IDs) != n {
		return fmt.Errorf("gcsr: %d original IDs for %d nodes", len(o.IDs), n)
	}

	// Encode every row, cutting a block boundary before the row that would
	// push a non-empty block past the target size.
	type openBlock struct {
		first int32
		count int32
		arcs  int32
		start int // byte offset into enc
	}
	var (
		enc   []byte
		metas []blockMeta
		cur   openBlock
	)
	closeBlock := func(end int) {
		metas = append(metas, blockMeta{
			first:  cur.first,
			count:  cur.count,
			arcs:   cur.arcs,
			crc:    crc32.Checksum(enc[cur.start:end], castagnoli),
			off:    int64(cur.start), // rebased below
			encLen: int32(end - cur.start),
		})
	}
	for v := 0; v < n; v++ {
		row := g.Neighbors(int32(v))
		rowStart := len(enc)
		enc = appendEncodedRow(enc, row)
		if cur.count > 0 && len(enc)-cur.start > blockBytes {
			closeBlock(rowStart)
			cur = openBlock{first: int32(v), start: rowStart}
		}
		cur.count++
		cur.arcs += int32(len(row))
	}
	if cur.count > 0 {
		closeBlock(len(enc))
	}

	// Assemble the metadata tail (index + IDs) to checksum it.
	h := gcsrV2Header{
		n:         int64(n),
		m:         g.m,
		maxDeg:    int64(g.maxDeg),
		numBlocks: int64(len(metas)),
		flags:     0,
	}
	if o.IDs != nil {
		h.flags |= gcsrV2FlagIDs
	}
	meta := make([]byte, 0, h.indexBytes()+h.idsBytes())
	blocksStart := h.blocksStart()
	for _, bm := range metas {
		var e [gcsrV2IndexEntry]byte
		binary.LittleEndian.PutUint32(e[0:4], uint32(bm.first))
		binary.LittleEndian.PutUint32(e[4:8], uint32(bm.count))
		binary.LittleEndian.PutUint32(e[8:12], uint32(bm.arcs))
		binary.LittleEndian.PutUint32(e[12:16], bm.crc)
		binary.LittleEndian.PutUint64(e[16:24], uint64(blocksStart+bm.off))
		binary.LittleEndian.PutUint32(e[24:28], uint32(bm.encLen))
		// e[28:32] reserved, zero.
		meta = append(meta, e[:]...)
	}
	for _, id := range o.IDs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		meta = append(meta, b[:]...)
	}

	var hdr [gcsrV2HeaderSize]byte
	copy(hdr[0:4], gcsrMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], gcsrVersion2)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(h.n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(h.m))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(h.maxDeg))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(h.numBlocks))
	binary.LittleEndian.PutUint32(hdr[40:44], h.flags)
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.Checksum(meta, castagnoli))

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	if _, err := bw.Write(enc); err != nil {
		return err
	}
	return bw.Flush()
}

// appendEncodedRow appends one node's delta+varint row encoding to dst.
func appendEncodedRow(dst []byte, row []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	if len(row) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(uint32(row[0])))
	for i := 1; i < len(row); i++ {
		dst = binary.AppendUvarint(dst, uint64(uint32(row[i]-row[i-1]-1)))
	}
	return dst
}

// parseV2Header decodes and sanity-checks the 48-byte version-2 header.
func parseV2Header(hdr []byte) (gcsrV2Header, error) {
	var h gcsrV2Header
	if len(hdr) < gcsrV2HeaderSize {
		return h, fmt.Errorf("gcsr: file shorter than the %d-byte v2 header", gcsrV2HeaderSize)
	}
	if string(hdr[0:4]) != gcsrMagic {
		return h, fmt.Errorf("gcsr: bad magic %q (not a .gcsr file)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != gcsrVersion2 {
		return h, fmt.Errorf("gcsr: version %d is not 2", v)
	}
	h.n = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	h.m = int64(binary.LittleEndian.Uint64(hdr[16:24]))
	h.maxDeg = int64(binary.LittleEndian.Uint64(hdr[24:32]))
	h.numBlocks = int64(binary.LittleEndian.Uint64(hdr[32:40]))
	h.flags = binary.LittleEndian.Uint32(hdr[40:44])
	h.metaCRC = binary.LittleEndian.Uint32(hdr[44:48])
	switch {
	case h.n < 0 || h.n > math.MaxInt32:
		return h, fmt.Errorf("gcsr: node count %d out of range", h.n)
	// Same overflow discipline as v1: every derived size must stay in
	// int64 so a lying header produces an error, not a wrapped offset.
	case h.m < 0 || h.m > (math.MaxInt64/8-gcsrV2HeaderSize-h.n)/2:
		return h, fmt.Errorf("gcsr: edge count %d out of range", h.m)
	case h.maxDeg < 0 || h.maxDeg > h.n:
		return h, fmt.Errorf("gcsr: max degree %d out of range for %d nodes", h.maxDeg, h.n)
	case h.numBlocks < 0 || h.numBlocks > h.n:
		return h, fmt.Errorf("gcsr: %d blocks out of range for %d nodes", h.numBlocks, h.n)
	case h.n > 0 && h.numBlocks == 0:
		return h, fmt.Errorf("gcsr: %d nodes but no blocks", h.n)
	case h.flags&^uint32(gcsrV2KnownFlags) != 0:
		return h, fmt.Errorf("gcsr: unknown flag bits %#x", h.flags&^uint32(gcsrV2KnownFlags))
	}
	return h, nil
}

// parseV2 parses a whole version-2 file image: header, metadata-tail CRC,
// and the block index with its tiling invariants. Block payloads are not
// decoded here — their CRCs are checked per block at decode time.
func parseV2(data []byte) (v2Layout, error) {
	var lay v2Layout
	h, err := parseV2Header(data)
	if err != nil {
		return lay, err
	}
	blocksStart := h.blocksStart()
	if int64(len(data)) < blocksStart {
		return lay, fmt.Errorf("gcsr: file is %d bytes, metadata needs %d (file truncated?)", len(data), blocksStart)
	}
	meta := data[gcsrV2HeaderSize:blocksStart]
	if got := crc32.Checksum(meta, castagnoli); got != h.metaCRC {
		return lay, fmt.Errorf("gcsr: metadata checksum %08x != stored %08x (file corrupted)", got, h.metaCRC)
	}
	metas := make([]blockMeta, h.numBlocks)
	nextFirst := int64(0)
	nextOff := blocksStart
	arcs := int64(0)
	for i := range metas {
		e := meta[i*gcsrV2IndexEntry:]
		bm := blockMeta{
			first:  int32(binary.LittleEndian.Uint32(e[0:4])),
			count:  int32(binary.LittleEndian.Uint32(e[4:8])),
			arcs:   int32(binary.LittleEndian.Uint32(e[8:12])),
			crc:    binary.LittleEndian.Uint32(e[12:16]),
			off:    int64(binary.LittleEndian.Uint64(e[16:24])),
			encLen: int32(binary.LittleEndian.Uint32(e[24:28])),
		}
		switch {
		case int64(bm.first) != nextFirst || bm.count <= 0 || int64(bm.first)+int64(bm.count) > h.n:
			return lay, fmt.Errorf("gcsr: block %d node range [%d,%d) does not tile [0,%d)", i, bm.first, int64(bm.first)+int64(bm.count), h.n)
		case bm.arcs < 0:
			return lay, fmt.Errorf("gcsr: block %d arc count %d negative", i, bm.arcs)
		case bm.off != nextOff || bm.encLen < 0 || bm.off+int64(bm.encLen) > int64(len(data)):
			return lay, fmt.Errorf("gcsr: block %d extent [%d,%d) does not tile the block region", i, bm.off, bm.off+int64(bm.encLen))
		// Every row costs at least one encoded byte (its degree varint)
		// and so does every arc, so counts beyond encLen are lies. This
		// bounds decode-time allocations by the actual file size before
		// any buffer is made.
		case bm.count > bm.encLen || bm.arcs > bm.encLen:
			return lay, fmt.Errorf("gcsr: block %d claims %d rows / %d arcs in %d encoded bytes", i, bm.count, bm.arcs, bm.encLen)
		}
		nextFirst += int64(bm.count)
		nextOff += int64(bm.encLen)
		arcs += int64(bm.arcs)
		metas[i] = bm
	}
	if nextFirst != h.n {
		return lay, fmt.Errorf("gcsr: blocks cover %d of %d nodes", nextFirst, h.n)
	}
	if nextOff != int64(len(data)) {
		return lay, fmt.Errorf("gcsr: %d trailing bytes after the block region", int64(len(data))-nextOff)
	}
	if arcs != 2*h.m {
		return lay, fmt.Errorf("gcsr: blocks hold %d arcs, header promises %d", arcs, 2*h.m)
	}
	lay.h = h
	lay.metas = metas
	return lay, nil
}

// checkBlockCRC compares got, the CRC-32C of one block's encoded payload,
// with the block's indexed one.
func checkBlockCRC(got uint32, bm blockMeta) error {
	if got != bm.crc {
		return fmt.Errorf("gcsr: block at node %d: checksum %08x != stored %08x (file corrupted)", bm.first, got, bm.crc)
	}
	return nil
}

// decodeRow is the one row decoder: it decodes node v's row starting at
// data[pos] — a degree, which must not exceed len(dst), and that many
// neighbors into dst — and returns the degree and the offset just past the
// row. Every varint is bounds-checked and out-of-range, unsorted or
// self-loop neighbors are rejected, so whatever calls it — a whole block and
// the open-time sweep through decodeRows, one row's first read from a
// cached page — applies the same checks.
func decodeRow(data []byte, pos int, v, n int64, dst []int32) (int, int, error) {
	d, p, ok := readUvarint(data, pos)
	if !ok || d > uint64(n) {
		return 0, pos, fmt.Errorf("gcsr: node %d: bad degree varint", v)
	}
	if d > uint64(len(dst)) {
		return 0, pos, fmt.Errorf("gcsr: node %d: degree %d exceeds the %d arcs left", v, d, len(dst))
	}
	end, err := decodeNeighbors(data, p, v, n, dst[:d])
	return int(d), end, err
}

// decodeRows decodes the len(off)-1 rows of nodes first, first+1, ... that
// data holds into local offsets off and neighbors adj, and requires the
// rows to fill adj and to end on data's last byte. ends, when non-nil,
// receives the byte offset just past each row.
func decodeRows(data []byte, first int32, n int64, off, adj, ends []int32) error {
	pos, total := 0, 0
	off[0] = 0
	for i := range off[1:] {
		d, p, err := decodeRow(data, pos, int64(first)+int64(i), n, adj[total:])
		if err != nil {
			return err
		}
		pos = p
		total += d
		off[i+1] = int32(total)
		if ends != nil {
			ends[i] = int32(pos)
		}
	}
	if total != len(adj) {
		return fmt.Errorf("gcsr: rows at node %d: %d arcs decoded, index promises %d", first, total, len(adj))
	}
	if pos != len(data) {
		return fmt.Errorf("gcsr: rows at node %d: %d trailing bytes", first, len(data)-pos)
	}
	return nil
}

// decodeNeighbors fills row with node v's neighbors from data[pos:] and
// returns the offset just past them. It is decodeRow's inner loop, kept a
// function of its own (too large to inline) so that the loop's few variables
// stay in registers: written into the row loop it ran 5% slower than the
// decoder it replaced.
func decodeNeighbors(data []byte, pos int, v, n int64, row []int32) (int, error) {
	prev := int64(-1) // the first neighbor is absolute: a gap-1 past -1
	for j := range row {
		g, p, ok := readUvarint(data, pos)
		if !ok {
			return pos, fmt.Errorf("gcsr: node %d: bad neighbor varint", v)
		}
		pos = p
		u := prev + 1 + int64(g)
		if u >= n {
			return pos, fmt.Errorf("gcsr: node %d: neighbor %d out of range [0,%d)", v, u, n)
		}
		if u == v {
			return pos, fmt.Errorf("gcsr: node %d: self loop", v)
		}
		row[j] = int32(u)
		prev = u
	}
	return pos, nil
}

// readUvarint decodes a uvarint at data[pos:], bounding the value below
// 2^35 (node IDs and gaps fit in 32 bits; the slack admits non-minimal
// encodings of small values without admitting overflow).
func readUvarint(data []byte, pos int) (uint64, int, bool) {
	var x uint64
	var s uint
	for ; pos < len(data); pos++ {
		b := data[pos]
		if b < 0x80 {
			if s >= 35 {
				return 0, pos, false
			}
			return x | uint64(b)<<s, pos + 1, true
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 42 {
			return 0, pos, false
		}
	}
	return 0, pos, false
}

// buildV2Graph builds the page-cached read path over a version-2 file
// image: the layout is parsed, every block is decoded once (validating CRCs
// and row invariants, reconstructing the heap off array so Degree stays
// O(1), and recording where the block's pages are cut and where each row
// starts in its page), and subsequent row reads go through the bounded page
// cache. The sweep keeps no decoded rows, so one scratch set sized for the
// largest block serves every block. It runs over whatever bytes it is given
// — a mapping or a heap image — and the caller keeps them alive: the cache
// reads its pages from them, and the IDs, when present, alias them where
// readInts can. When label is set, each decoded row is also fed to a
// union-find forest, which is returned (nil otherwise): the sweep is the one
// pass over the rows OpenLCC labels components in.
func buildV2Graph(data []byte, o OpenOptions, label bool) (*Graph, forest, error) {
	lay, err := parseV2(data)
	if err != nil {
		return nil, nil, err
	}
	h := lay.h
	maxRows, maxArcs := int32(0), int32(0)
	for _, bm := range lay.metas {
		maxRows, maxArcs = max(maxRows, bm.count), max(maxArcs, bm.arcs)
	}
	// parseV2 bounded count and arcs by the block's encoded length, so the
	// scratch is no larger than the file.
	boff := make([]int32, int(maxRows)+1)
	badj := make([]int32, maxArcs)
	ends := make([]int32, maxRows)
	off := make([]int64, h.n+1)
	rowAt := make([]uint16, h.n)
	var pages []pageMeta
	var f forest
	if label {
		f = newForest(int(h.n))
	}
	maxDeg := int64(0)
	for b, bm := range lay.metas {
		enc := data[bm.off : bm.off+int64(bm.encLen)]
		if err := checkBlockCRC(crc32.Checksum(enc, castagnoli), bm); err != nil {
			return nil, nil, err
		}
		boff, ends := boff[:bm.count+1], ends[:bm.count]
		if err := decodeRows(enc, bm.first, h.n, boff, badj[:bm.arcs], ends); err != nil {
			return nil, nil, err
		}
		base := off[bm.first]
		for i := int32(0); i < bm.count; i++ {
			maxDeg = max(maxDeg, int64(boff[i+1]-boff[i]))
			off[int64(bm.first)+int64(i)+1] = base + int64(boff[i+1])
			if f != nil {
				f.addRow(bm.first+i, badj[boff[i]:boff[i+1]])
			}
		}
		pages = appendPages(pages, int32(b), bm, boff, ends, pageBytes, rowAt[bm.first:bm.first+bm.count])
	}
	if maxDeg != h.maxDeg {
		return nil, nil, fmt.Errorf("gcsr: stored max degree %d != scanned %d", h.maxDeg, maxDeg)
	}
	store := newBlockStore(data, lay, off, pages, rowAt, o.BlockCacheBytes)
	g := &Graph{off: off, m: h.m, maxDeg: int(h.maxDeg), blocks: store}
	if h.flags&gcsrV2FlagIDs != 0 {
		// A graph with no nodes has an empty section, which readInts reads
		// as nil; the mapping is kept all the same, as an empty .gids
		// sidecar keeps it for a v1 file.
		g.origIDs = readInts[int64](data[h.idsStart():h.blocksStart()])
		if g.origIDs == nil {
			g.origIDs = []int64{}
		}
	}
	g.buildHubIndex()
	return g, f, nil
}
