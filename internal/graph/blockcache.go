package graph

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"unsafe"
)

// pageBytes is the target encoded size of one page, the unit the block
// store verifies, caches and evicts. A file block (the CRC and I/O unit,
// DefaultBlockBytes) is cut into pages at row boundaries when the file is
// opened, so a miss indexes ~8 KiB of rows however large the block is; each
// row is then decoded, and charged, on its first read. Measured on the
// 1M-edge BA fixture under a cache smaller than the decoded rows, when a miss
// decoded and charged its whole page: 16 / 8 / 4 KiB units ran at 248k /
// 314k / 316k steps/s. A row's start within its page is kept as a uint16, and
// a page's slab index in the bits locDecoded and the offset leave; the
// constants below hold pageBytes to both (a page of several rows has at most
// one row per byte).
const pageBytes = 8 << 10

const (
	_ uint16 = pageBytes
	_ uint32 = 1<<(31-locSlabShift) - pageBytes
)

// crcChunk is the stride, in encoded bytes of a page, at which a page load
// records the running block CRC-32C state that a row's first read checks
// its bytes against.
const crcChunk = 256

// slabInts is the size, in neighbors, of the slabs (1 KiB chunks) a page
// carves its decoded rows from. A page is charged a slab when a first read
// opens it, so what a resident page costs follows the rows read from it.
const slabInts = 256

// A decoded row's entry in decodedPage.loc is locDecoded | slab<<locSlabShift
// | offset. An offset runs to slabInts inclusive (an empty row read when its
// slab is full), so it takes the low 9 bits.
const (
	locDecoded   = 1 << 31
	locSlabShift = 9
)

// pageDirShift sizes the page directory: one entry per 64 nodes (4 bytes
// beside the 512 that Graph.off spends on them).
const pageDirShift = 6

// pageMeta locates one page: a run of whole rows inside one file block.
// start and end are byte offsets into the owning block's encoded payload.
type pageMeta struct {
	first int32 // first node of the page
	count int32 // rows
	arcs  int32 // neighbors over those rows
	block int32 // owning file block
	start int32
	end   int32
}

// appendPages cuts one block's rows into pages and appends them to pages,
// by the writer's rule for blocks: a page closes before the row that would
// push it past target bytes, so a row larger than target is a page of its
// own and a block no larger than target is one page. off is the block's
// local row offsets and ends[i] the byte offset just past row i, both as
// decodeRows left them. rowAt[i] receives where row i starts within its
// page; a page of several rows fits in target bytes, so that is at most
// target.
func appendPages(pages []pageMeta, block int32, bm blockMeta, off, ends []int32, target int32, rowAt []uint16) []pageMeta {
	row, start := int32(0), int32(0) // first row and first byte of the open page
	rowAt[0] = 0
	for i := int32(1); i < bm.count; i++ {
		if ends[i]-start > target {
			pages = append(pages, pageMeta{
				first: bm.first + row, count: i - row, arcs: off[i] - off[row],
				block: block, start: start, end: ends[i-1],
			})
			row, start = i, ends[i-1]
		}
		rowAt[i] = uint16(ends[i-1] - start)
	}
	return append(pages, pageMeta{
		first: bm.first + row, count: bm.count - row, arcs: bm.arcs - off[row],
		block: block, start: start, end: bm.encLen,
	})
}

// blockStore serves adjacency rows of a version-2 .gcsr image through a
// bounded cache of pages. The page is the unit that is verified, cached and
// evicted; the row is the unit that is decoded, on its first read from a
// resident page, and charged, through the slab it is carved from.
//
// The hot path (a warm hit) is lock-free and allocation-free: an atomic
// pointer load, one atomic add on the page's hit counter, which doubles as
// its clock reference, an atomic load of the row's loc entry, which carries
// its decoded bit, and loads of its slab and heap degree. The add is a
// write on every hit, and hits is a dense array, so eight pages share a
// cache line: walkers reading the same hub pages contend on it. Misses verify the owning
// block's CRC and allocate the page's index outside the lock, and publish and
// charge it under it; a row's first read decodes it under the page's own
// mutex (see decodedPage.fill), and a slab it opens is charged under the
// store's mutex afterwards. The clock hand runs after every charge, so the
// resident bytes are within the budget after every load and every fill. The
// two mutexes are never held together. Eviction only drops the cache's
// reference to a page — callers may still hold row slices into an evicted
// page's slabs, so slabs are never reused; the garbage collector reclaims
// them once the last row slice dies. The policy is second chance (clock),
// weighted by bytes: the hand passes over a page read since its last pass,
// noting its hit counter, and evicts the first page not read since, until
// the resident bytes fit the budget.
type blockStore struct {
	data     []byte      // whole file image (mmap'd or heap)
	n        int64       // node count, for decode validation
	off      []int64     // the graph's heap prefix sums: row v has off[v+1]-off[v] neighbors
	metas    []blockMeta // parsed block index
	pages    []pageMeta  // page table, recorded by the open-time sweep
	rowAt    []uint16    // rowAt[v] is where v's row starts within its page's encoded bytes
	dir      []int32     // dir[b] is the page of node b<<pageDirShift; one more entry names the last page
	slots    []atomic.Pointer[decodedPage]
	hits     []atomic.Uint64 // row reads served per page, parallel to slots
	capBytes int64

	misses    atomic.Uint64
	evictions atomic.Uint64
	resBytes  atomic.Int64
	resPages  atomic.Int64

	mu   sync.Mutex // guards slot stores, the pages' charges, seen and the clock hand
	seen []uint64   // hits[p] when the hand last passed page p
	hand int
}

// decodedPage is one resident page: an index of its rows that their first
// reads fill. Row i, node first+i, is undecoded until loc[i] has locDecoded
// set; then it is slabs[s][o:o+d], with s and o from loc[i] and d the heap
// degree off[i+1]-off[i]. A first read decodes the row into the page's
// current slab, or into a slab it opens, sets the slab's table entry and
// then publishes loc[i] with one atomic store, so a reader that loads a
// decoded entry finds its slab set. The slab table has a fixed length, the
// bound loadPage proves.
type decodedPage struct {
	first int32
	loc   []atomic.Uint32
	slabs [][]int32
	off   []int64  // the graph's heap prefix sums from node first on
	sums  []uint32 // sums[c]: the block's running CRC-32C before CRC chunk c of the page
	bytes int64    // charged cache weight: the index, sums and opened slabs; guarded by blockStore.mu

	mu   sync.Mutex // serializes first reads; guards n, cur and used
	n    int32      // slabs opened
	cur  int32      // the slab rows of up to slabInts neighbors are carved from; -1 before the first
	used int32      // neighbors carved from slab cur
}

func newBlockStore(data []byte, lay v2Layout, off []int64, pages []pageMeta, rowAt []uint16, capBytes int64) *blockStore {
	if capBytes <= 0 {
		capBytes = DefaultBlockCacheBytes
	}
	s := &blockStore{
		data:     data,
		n:        lay.h.n,
		off:      off,
		metas:    lay.metas,
		pages:    pages,
		rowAt:    rowAt,
		dir:      make([]int32, (lay.h.n+1<<pageDirShift-1)>>pageDirShift+1),
		slots:    make([]atomic.Pointer[decodedPage], len(pages)),
		hits:     make([]atomic.Uint64, len(pages)),
		seen:     make([]uint64, len(pages)),
		capBytes: capBytes,
	}
	p := 0
	for b := range s.dir {
		for p+1 < len(pages) && int64(pages[p+1].first) <= int64(b)<<pageDirShift {
			p++
		}
		s.dir[b] = int32(p)
	}
	return s
}

// pageOf returns the index of the page holding node v's row: the directory
// narrows it to the pages that overlap v's span of 64 nodes —
// almost always one, unless rows run to kilobytes — and a binary search
// picks among those. (A search over the whole table mispredicts its way
// down ten levels on a random row and cost more than the rest of a warm
// hit.)
func (s *blockStore) pageOf(v int32) int {
	b := v >> pageDirShift
	lo, hi := int(s.dir[b]), int(s.dir[b+1])
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if s.pages[mid].first <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// row returns node v's neighbor row. The returned slice stays valid for the
// caller's lifetime even across evictions (buffers are never reused), but
// as with Graph.Neighbors it must not be written to.
func (s *blockStore) row(v int32) []int32 {
	p := s.pageOf(v)
	pg := s.slots[p].Load()
	if pg != nil {
		s.hits[p].Add(1)
	} else {
		pg = s.miss(p)
	}
	if r, ok := pg.row(v - pg.first); ok {
		return r
	}
	return s.firstRead(p, pg, v-pg.first)
}

// miss loads page p and caches it.
func (s *blockStore) miss(p int) *decodedPage {
	s.misses.Add(1)
	pm := s.pages[p]
	bm := s.metas[pm.block]
	pg, err := loadPage(s.data[bm.off:bm.off+int64(bm.encLen)], bm, pm, s.off[pm.first:pm.first+pm.count+1])
	if err != nil {
		panic(modified(pm, err))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.slots[p].Load(); cur != nil {
		// A racing miss published first; serve its copy and drop ours.
		return cur
	}
	s.slots[p].Store(pg)
	// Any value other than the counter's reads as "hit since the hand last
	// passed": a fresh page gets its second chance.
	s.seen[p] = s.hits[p].Load() - 1
	s.resBytes.Add(pg.bytes)
	s.resPages.Add(1)
	s.evict()
	return pg
}

// firstRead decodes and returns row i of page p, resident as pg, and charges
// the slab it opened, if any.
func (s *blockStore) firstRead(p int, pg *decodedPage, i int32) []int32 {
	pm := s.pages[p]
	bm := s.metas[pm.block]
	enc := s.data[bm.off+int64(pm.start) : bm.off+int64(pm.end)]
	r, opened, err := pg.fill(i, enc, s.rowAt[pm.first:pm.first+pm.count], s.n)
	if err != nil {
		panic(modified(pm, err))
	}
	if opened > 0 {
		s.mu.Lock()
		// A page evicted since its slot was loaded left the budget with the
		// charge it had then; its later slabs are not charged.
		if s.slots[p].Load() == pg {
			pg.bytes += opened
			s.resBytes.Add(opened)
			s.evict()
		}
		s.mu.Unlock()
	}
	return r
}

// modified is the panic value for a page whose bytes no longer pass the
// checks they passed at open: every row decoded cleanly then, so this can
// only mean the backing file changed underneath the mapping.
func modified(pm pageMeta, err error) string {
	return fmt.Sprintf("gcsr: page at node %d (block %d) failed to decode after open-time validation (backing file modified?): %v", pm.first, pm.block, err)
}

// loadPage verifies block, the encoded payload of block bm, against its
// indexed CRC-32C, recording the running state every crcChunk bytes of page
// pm on the way, and allocates the page's index for first reads, which is
// what the page is charged on load. off is the heap prefix sums of the
// page's rows and the one past them, which give first reads the rows'
// degrees. It decodes no row and allocates no slab.
func loadPage(block []byte, bm blockMeta, pm pageMeta, off []int64) (*decodedPage, error) {
	enc := block[pm.start:pm.end]
	sums := make([]uint32, (len(enc)+crcChunk-1)/crcChunk+1)
	crc := crc32.Update(0, castagnoli, block[:pm.start])
	for c := range len(sums) - 1 {
		sums[c] = crc
		crc = crc32.Update(crc, castagnoli, enc[c*crcChunk:min((c+1)*crcChunk, len(enc))])
	}
	sums[len(sums)-1] = crc
	if err := checkBlockCRC(crc32.Update(crc, castagnoli, block[pm.end:]), bm); err != nil {
		return nil, err
	}
	// The slab table holds every slab the page's first reads can open. fill
	// opens one only with a row it decodes, one row each, so there are at
	// most as many as rows. And 2·arcs/slabInts + 1 bound them, in integer
	// division: a row longer than slabInts opens a slab of its own (L such
	// slabs, each holding at least slabInts+1 arcs). Any other row is carved
	// from the current slab and opens a new one only when it does not fit,
	// so if S1, …, Sk are the slabs those rows opened, in order, the row that
	// opened S(j+1) is in it and did not fit beside what Sj held, which no
	// later row joins: held(Sj) + held(S(j+1)) ≥ slabInts+1. Summing that
	// over j < k, plus what the long slabs hold, counts every arc at most
	// twice: (k-1+L)·(slabInts+1) ≤ 2·arcs, so k+L-1 ≤ 2·arcs/slabInts.
	pg := &decodedPage{
		first: pm.first,
		off:   off,
		loc:   make([]atomic.Uint32, pm.count),
		slabs: make([][]int32, min(int(pm.count), 2*int(pm.arcs)/slabInts+1)),
		sums:  sums,
		cur:   -1,
	}
	pg.bytes = int64(unsafe.Sizeof(*pg)) + 4*int64(len(pg.loc)+len(sums)) +
		int64(unsafe.Sizeof([]int32(nil)))*int64(len(pg.slabs))
	return pg, nil
}

// row returns row first+i if it is decoded.
func (pg *decodedPage) row(i int32) ([]int32, bool) {
	l := pg.loc[i].Load()
	if l&locDecoded == 0 {
		return nil, false
	}
	o := l & (1<<locSlabShift - 1)
	return pg.slabs[(l&^locDecoded)>>locSlabShift][o : o+uint32(pg.off[i+1]-pg.off[i])], true
}

// fill decodes and returns row first+i on its first read, from enc, the
// page's encoded bytes, in which rowAt[i] is where the row starts and the
// next row's start (or enc's end) is where it must end, with the bytes of
// the slab it opened for the row (0 when it carved the row from the current
// slab). It holds up the integrity contract (gcsr_v2.go): it re-runs the CRC
// over the chunks the row covers from the states the page load recorded,
// then decodes the row with decodeRow and checks it against the heap degree
// and its end. A row that fails takes no room: a slab enters the table only
// with the row that opened it. A racing first read of the same row waits on
// the page mutex and finds it decoded.
func (pg *decodedPage) fill(i int32, enc []byte, rowAt []uint16, n int64) ([]int32, int64, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if r, ok := pg.row(i); ok {
		return r, 0, nil
	}
	v := int64(pg.first) + int64(i)
	start, end := int(rowAt[i]), len(enc)
	if int(i)+1 < len(rowAt) {
		end = int(rowAt[i+1])
	}
	for c := start / crcChunk; c*crcChunk < end; c++ {
		lo, hi := c*crcChunk, min((c+1)*crcChunk, len(enc))
		if got := crc32.Update(pg.sums[c], castagnoli, enc[lo:hi]); got != pg.sums[c+1] {
			return nil, 0, fmt.Errorf("gcsr: node %d: page bytes [%d,%d) checksum %08x != %08x when the page loaded", v, lo, hi, got, pg.sums[c+1])
		}
	}
	deg := int32(pg.off[i+1] - pg.off[i])
	s, o := pg.cur, pg.used
	var slab []int32 // the slab the row opens, if it opens one
	if deg > slabInts || s < 0 || o+deg > slabInts {
		s, o = pg.n, 0
		slab = make([]int32, max(deg, slabInts))
	}
	var row []int32
	if slab != nil {
		row = slab[:deg]
	} else {
		row = pg.slabs[s][o : o+deg]
	}
	d, pos, err := decodeRow(enc[:end], start, v, n, row)
	switch {
	case err != nil:
		return nil, 0, err
	case d != len(row):
		return nil, 0, fmt.Errorf("gcsr: node %d: degree %d, open-time degree %d", v, d, len(row))
	case pos != end:
		return nil, 0, fmt.Errorf("gcsr: node %d: %d trailing bytes", v, end-pos)
	}
	if slab != nil {
		pg.slabs[s] = slab
		pg.n++
	}
	if deg <= slabInts {
		pg.cur, pg.used = s, o+deg
	}
	pg.loc[i].Store(locDecoded | uint32(s)<<locSlabShift | uint32(o))
	return row, 4 * int64(len(slab)), nil
}

// evict runs the clock hand until the cache fits its byte budget, always
// leaving at least one resident page so a cache smaller than one page
// still makes progress. Caller holds s.mu.
func (s *blockStore) evict() {
	for s.resBytes.Load() > s.capBytes && s.resPages.Load() > 1 {
		p := s.hand
		s.hand++
		if s.hand == len(s.slots) {
			s.hand = 0
		}
		pg := s.slots[p].Load()
		if pg == nil {
			continue
		}
		if h := s.hits[p].Load(); h != s.seen[p] {
			s.seen[p] = h // second chance
			continue
		}
		s.slots[p].Store(nil)
		s.resBytes.Add(-pg.bytes)
		s.resPages.Add(-1)
		s.evictions.Add(1)
	}
}

// BlockCacheStats is a point-in-time snapshot of one graph's page cache,
// exported on /metrics by the service layer. The cache unit is a page
// (about 8 KiB of encoded rows cut from a file block at row boundaries), so
// Blocks, ResidentBlocks and Evictions count pages; the field names predate
// pages and are kept for the metrics built on them.
type BlockCacheStats struct {
	Blocks         int    // total pages in the file
	ResidentBlocks int64  // pages currently cached
	ResidentBytes  int64  // charged size of resident pages: their indexes and the slabs their first reads opened
	Hits           uint64 // row reads served from the cache
	Misses         uint64 // row reads that loaded a page
	Evictions      uint64 // pages dropped by the clock hand
}

func (s *blockStore) stats() BlockCacheStats {
	st := BlockCacheStats{
		Blocks:         len(s.pages),
		ResidentBlocks: s.resPages.Load(),
		ResidentBytes:  s.resBytes.Load(),
		Misses:         s.misses.Load(),
		Evictions:      s.evictions.Load(),
	}
	for i := range s.hits {
		st.Hits += s.hits[i].Load()
	}
	return st
}
