package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// pageBytes is the target encoded size of one page, the unit the block
// store decodes, caches and evicts. A file block (the CRC and I/O unit,
// DefaultBlockBytes) is cut into pages at row boundaries when the file is
// opened, so a miss decodes ~8 KiB of rows however large the block is.
// Measured on the 1M-edge BA fixture under a cache smaller than the decoded
// rows: 16 / 8 / 4 KiB units ran at 248k / 314k / 316k steps/s.
const pageBytes = 8 << 10

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
// decodeRows left them.
func appendPages(pages []pageMeta, block int32, bm blockMeta, off, ends []int32, target int32) []pageMeta {
	row, start := int32(0), int32(0) // first row and first byte of the open page
	for i := int32(1); i < bm.count; i++ {
		if ends[i]-start > target {
			pages = append(pages, pageMeta{
				first: bm.first + row, count: i - row, arcs: off[i] - off[row],
				block: block, start: start, end: ends[i-1],
			})
			row, start = i, ends[i-1]
		}
	}
	return append(pages, pageMeta{
		first: bm.first + row, count: bm.count - row, arcs: bm.arcs - off[row],
		block: block, start: start, end: bm.encLen,
	})
}

// blockStore serves adjacency rows of a version-2 .gcsr image through a
// bounded cache of decoded pages.
//
// The hot path (a warm hit) is lock-free and allocation-free: an atomic
// pointer load plus one atomic add on the page's own hit counter, which
// doubles as its clock reference — no cache line is written by every
// reader. Misses verify the owning block's CRC, decode the page outside the
// lock and publish under it. Eviction only drops the cache's reference to a
// decoded page — callers may still hold row slices into an evicted page's
// array, so buffers are never reused; the garbage collector reclaims them
// once the last row slice dies. This is the same second-chance (clock)
// policy as internal/walk's stateInfo cache, adapted to byte-weighted
// entries.
type blockStore struct {
	data     []byte      // whole file image (mmap'd or heap)
	n        int64       // node count, for decode validation
	metas    []blockMeta // parsed block index
	pages    []pageMeta  // page table, recorded by the open-time sweep
	dir      []int32     // dir[b] is the page of node b<<pageDirShift; one more entry names the last page
	slots    []atomic.Pointer[decodedPage]
	hits     []atomic.Uint64 // row reads served per page, parallel to slots
	capBytes int64

	misses    atomic.Uint64
	evictions atomic.Uint64
	resBytes  atomic.Int64
	resPages  atomic.Int64

	mu   sync.Mutex // guards slot stores, seen and the clock hand
	seen []uint64   // hits[p] when the hand last passed page p
	hand int
}

// decodedPage is one page's rows in ready-to-serve form. off and adj are
// local to the page: node v's row is adj[off[v-first]:off[v-first+1]].
type decodedPage struct {
	first int32
	off   []int32
	adj   []int32
	bytes int64 // accounted cache weight
}

func newBlockStore(data []byte, lay v2Layout, pages []pageMeta, capBytes int64) *blockStore {
	if capBytes <= 0 {
		capBytes = DefaultBlockCacheBytes
	}
	s := &blockStore{
		data:     data,
		n:        lay.h.n,
		metas:    lay.metas,
		pages:    pages,
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
	i := v - pg.first
	return pg.adj[pg.off[i]:pg.off[i+1]]
}

// miss decodes page p and caches it.
func (s *blockStore) miss(p int) *decodedPage {
	s.misses.Add(1)
	pm := s.pages[p]
	pg, err := decodeV2Page(s.data, s.metas[pm.block], pm, s.n)
	if err != nil {
		// Every row decoded cleanly at open time, so this can only mean
		// the backing file changed underneath the mapping.
		panic(fmt.Sprintf("gcsr: page at node %d (block %d) failed to decode after open-time validation (backing file modified?): %v", pm.first, pm.block, err))
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

// BlockCacheStats is a point-in-time snapshot of one graph's decoded-page
// cache, exported on /metrics by the service layer. The cache unit is a
// page (about 8 KiB of encoded rows cut from a file block at row
// boundaries), so Blocks, ResidentBlocks and Evictions count pages; the
// field names predate pages and are kept for the metrics built on them.
type BlockCacheStats struct {
	Blocks         int    // total pages in the file
	ResidentBlocks int64  // pages currently decoded and cached
	ResidentBytes  int64  // accounted size of resident pages
	CapacityBytes  int64  // configured cache bound
	Hits           uint64 // row reads served from the cache
	Misses         uint64 // row reads that decoded a page
	Evictions      uint64 // pages dropped by the clock hand
}

func (s *blockStore) stats() BlockCacheStats {
	st := BlockCacheStats{
		Blocks:         len(s.pages),
		ResidentBlocks: s.resPages.Load(),
		ResidentBytes:  s.resBytes.Load(),
		CapacityBytes:  s.capBytes,
		Misses:         s.misses.Load(),
		Evictions:      s.evictions.Load(),
	}
	for i := range s.hits {
		st.Hits += s.hits[i].Load()
	}
	return st
}
