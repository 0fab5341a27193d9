package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// saveV2 writes g as a v2 file under dir and returns the path.
func saveV2(t *testing.T, dir, name string, g *Graph, o SaveOptions) string {
	t.Helper()
	o.Version = 2
	path := filepath.Join(dir, name+GCSRExt)
	if err := SaveOpts(path, g, o); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGCSRV2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"empty", NewBuilder(0).Build()},
		{"edgeless", NewBuilder(5).Build()},
		{"k4", FromEdgeList(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})},
		{"random", randomTestGraph(rng, 300, 2000)},
		{"star", starGraph(200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := saveV2(t, dir, tc.name, tc.g, SaveOptions{})
			for _, open := range []struct {
				name string
				fn   func() (*Graph, error)
			}{
				{"load", func() (*Graph, error) { return load(path) }},
				{"mapped", func() (*Graph, error) { return OpenMapped(path) }},
				{"tinycache", func() (*Graph, error) {
					return OpenMappedOpts(path, OpenOptions{BlockCacheBytes: 1})
				}},
			} {
				t.Run(open.name, func(t *testing.T) {
					got, err := open.fn()
					if err != nil {
						t.Fatal(err)
					}
					defer got.Close()
					graphsEqual(t, tc.g, got)
					if err := Validate(got); err != nil {
						t.Fatal(err)
					}
					if _, ok := got.BlockCacheStats(); !ok {
						t.Fatal("v2 graph not served through the page cache")
					}
				})
			}
		})
	}
}

// TestGCSRV2SmallBlocks forces multi-block files (tiny BlockBytes) and
// checks every row survives the block tiling, across both a cache large
// enough to hold everything and one that thrashes.
func TestGCSRV2SmallBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTestGraph(rng, 500, 4000)
	dir := t.TempDir()
	path := saveV2(t, dir, "small", g, SaveOptions{BlockBytes: 128})
	for _, cacheBytes := range []int64{0, 1, 4 << 10} {
		got, err := OpenMappedOpts(path, OpenOptions{BlockCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, g, got)
		st, ok := got.BlockCacheStats()
		if !ok {
			t.Fatal("v2 graph reports no block cache")
		}
		if st.Blocks < 10 {
			t.Fatalf("BlockBytes=128 produced only %d blocks", st.Blocks)
		}
		if cacheBytes == 1 && st.Evictions == 0 {
			t.Fatalf("1-byte cache never evicted: %+v", st)
		}
		if cacheBytes == 1 && st.ResidentBlocks > 1 {
			t.Fatalf("1-byte cache holds %d blocks", st.ResidentBlocks)
		}
		got.Close()
	}
}

// TestGCSRV2StatsAndProbes exercises the probe family (HasEdge hubs and
// binary search, CommonNeighbors galloping) over the block-compressed
// backing against a star graph, which concentrates a
// hub row and skewed intersections.
func TestGCSRV2StatsAndProbes(t *testing.T) {
	g := starGraph(300)
	dir := t.TempDir()
	path := saveV2(t, dir, "star", g, SaveOptions{BlockBytes: 64})
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if _, ok := got.BlockCacheStats(); !ok {
		t.Fatal("v2 mapped graph not block-compressed")
	}
	if !got.IsHub(0) {
		t.Fatal("star center lost its hub row")
	}
	for v := int32(1); v < 300; v++ {
		if !got.HasEdge(0, v) || !got.HasEdge(v, 0) {
			t.Fatalf("missing star edge (0,%d)", v)
		}
		if got.HasEdge(v, v%299+1) && v != v%299+1 {
			t.Fatalf("phantom leaf edge (%d,%d)", v, v%299+1)
		}
	}
	if c := got.CommonNeighbors(1, 2); c != 1 {
		t.Fatalf("CommonNeighbors(1,2) = %d, want 1 (the center)", c)
	}
}

// pagedTestGraph builds a graph whose v2 file at the default BlockBytes has
// several pages in every block and the page shapes the small fixtures cannot
// give: hub's row alone is larger than a page, so it is cut out of the middle
// of a block as a page of its own, and the two nodes on either side of it are
// isolated, which puts degree-0 rows at both edges of both cuts.
func pagedTestGraph() (g *Graph, hub int32) {
	const n = 20000
	hub = 5000
	isolated := func(v int32) bool { return v != hub && v >= hub-2 && v <= hub+2 }
	b := NewBuilder(n)
	for v := int32(0); v < n; v++ {
		if v != hub && !isolated(v) {
			b.AddEdge(hub, v)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 60000; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if !isolated(u) && !isolated(v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build(), hub
}

// slabBoundGraph builds a graph whose first page reaches the slab table's
// bound: its rows alternate between slabInts/2+1 neighbors, two of which
// never fit one slab, and slabInts+1, each of which opens a slab of its own,
// so that every row's first read opens a slab, in whatever order they come.
func slabBoundGraph() *Graph {
	const rows = 64
	b := NewBuilder(rows + slabInts + 1)
	for v := int32(0); v < rows; v++ {
		d := slabInts/2 + 1
		if v%2 == 1 {
			d = slabInts + 1
		}
		for j := range int32(d) {
			b.AddEdge(v, rows+j)
		}
	}
	return b.Build()
}

// TestGCSRV2Pages opens a default-BlockBytes file whose blocks each hold
// several pages and checks the page table the open-time sweep recorded and
// every row served through it, with everything resident, with a handful of
// pages resident, and with one. Then it reads every row of a page built to
// need as many slabs as it has rows, which its slab table must hold exactly.
func TestGCSRV2Pages(t *testing.T) {
	t.Run("slab-table-bound", func(t *testing.T) {
		g := slabBoundGraph()
		got, err := OpenMapped(saveV2(t, t.TempDir(), "slabs", g, SaveOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		s := got.blocks
		pm := s.pages[0]
		if pm.count < 8 || pm.first+pm.count > 64 {
			t.Fatalf("page 0 %+v is not a run of the alternating rows", pm)
		}
		bm := s.metas[pm.block]
		block := s.data[bm.off : bm.off+int64(bm.encLen)]
		// The open-time hub index has read these rows already, so each
		// order reads a page of its own: in row order, and short rows first.
		var inRows, shortFirst []int32
		for i := range pm.count {
			inRows = append(inRows, i)
		}
		for _, odd := range []int32{0, 1} {
			for i := odd; i < pm.count; i += 2 {
				shortFirst = append(shortFirst, i)
			}
		}
		for _, order := range [][]int32{inRows, shortFirst} {
			pg, err := loadPage(block, bm, pm, s.off[pm.first:pm.first+pm.count+1])
			if err != nil {
				t.Fatal(err)
			}
			if len(pg.slabs) != int(pm.count) {
				t.Fatalf("slab table of %d for %d rows", len(pg.slabs), pm.count)
			}
			for _, i := range order {
				row, opened, err := pg.fill(i, block[pm.start:pm.end], s.rowAt[pm.first:pm.first+pm.count], s.n)
				if err != nil || !slices.Equal(row, g.Neighbors(pm.first+i)) || opened != 4*int64(max(len(row), slabInts)) {
					t.Fatalf("row %d: %v, or it differs, or its slab of %d bytes is not its own", pm.first+i, err, opened)
				}
			}
			if pg.n != int32(len(pg.slabs)) {
				t.Fatalf("%d rows opened %d of %d slabs", pm.count, pg.n, len(pg.slabs))
			}
		}
		graphsEqual(t, g, got)
	})

	g, hub := pagedTestGraph()
	path := saveV2(t, t.TempDir(), "paged", g, SaveOptions{})
	for _, cacheBytes := range []int64{0, 128 << 10, 1} {
		got, err := OpenMappedOpts(path, OpenOptions{BlockCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		s := got.blocks
		perBlock := make([]int, len(s.metas))
		hubPage := -1
		for p, pm := range s.pages {
			bm := s.metas[pm.block]
			prev := pageMeta{first: bm.first, block: pm.block} // p opens its block
			if p > 0 && s.pages[p-1].block == pm.block {
				prev = s.pages[p-1]
			}
			if pm.first != prev.first+prev.count || pm.start != prev.end || pm.count <= 0 || pm.end <= pm.start {
				t.Fatalf("page %d %+v does not continue %+v", p, pm, prev)
			}
			last := p+1 == len(s.pages) || s.pages[p+1].block != pm.block
			if last && (pm.end != bm.encLen || pm.first+pm.count != bm.first+bm.count) {
				t.Fatalf("last page %+v of block %+v stops short", pm, bm)
			}
			if pm.count > 1 && pm.end-pm.start > pageBytes {
				t.Fatalf("page %+v holds %d rows in %d bytes", pm, pm.count, pm.end-pm.start)
			}
			if int64(pm.arcs) != got.off[pm.first+pm.count]-got.off[pm.first] {
				t.Fatalf("page %+v arc count disagrees with the degrees", pm)
			}
			perBlock[pm.block]++
			if pm.first == hub {
				hubPage = p
			}
		}
		for b, c := range perBlock[:len(perBlock)-1] {
			if c < 3 {
				t.Fatalf("block %d has %d pages, want >= 3", b, c)
			}
		}
		if hubPage < 1 || hubPage+1 >= len(s.pages) {
			t.Fatalf("no interior page starts at the hub row (page %d of %d)", hubPage, len(s.pages))
		}
		hp, before, after := s.pages[hubPage], s.pages[hubPage-1], s.pages[hubPage+1]
		if hp.count != 1 || hp.end-hp.start <= pageBytes {
			t.Fatalf("hub row is not an oversized page of its own: %+v", hp)
		}
		if before.block != hp.block || after.block != hp.block {
			t.Fatalf("hub page is not cut inside a block: %+v %+v %+v", before, hp, after)
		}
		if after.first != hub+1 || got.Degree(hub-1) != 0 || got.Degree(hub+1) != 0 {
			t.Fatal("the cuts around the hub page are not flanked by degree-0 rows")
		}

		graphsEqual(t, g, got)
		st, _ := got.BlockCacheStats()
		if st.Blocks != len(s.pages) || st.Hits+st.Misses == 0 {
			t.Fatalf("stats do not count pages: %+v for %d pages", st, len(s.pages))
		}
		switch cacheBytes {
		case 0:
			if st.Evictions != 0 || st.Misses > uint64(len(s.pages)) {
				t.Fatalf("roomy cache evicted or loaded a page twice: %+v", st)
			}
		case 1:
			if st.Evictions == 0 || st.ResidentBlocks != 1 {
				t.Fatalf("1-byte cache should hold exactly one page: %+v", st)
			}
		default:
			if st.Evictions == 0 || st.ResidentBytes > cacheBytes {
				t.Fatalf("tight cache over budget or never evicted: %+v", st)
			}
		}
		got.Close()
	}
}

// TestGCSRV2CacheConcurrent hammers one thrashing cache from many
// goroutines; run under -race this doubles as the publication-safety test,
// and the row checks verify evicted buffers are never recycled under
// readers' feet. The second case has pages cut inside blocks. In the third,
// the goroutines are released together onto one freshly loaded page and
// each reads all its rows, in an order of its own, so every row's first
// read races the others'. In the fourth, the budget holds every page's
// index but not the slabs of every row, so the slabs first reads open drive
// eviction; the budget must hold after every read, the store's resident
// bytes must be the sum of its resident pages' charges, and a slab opened in
// a page already evicted must not be charged.
func TestGCSRV2CacheConcurrent(t *testing.T) {
	paged, _ := pagedTestGraph()
	for _, tc := range []struct {
		name       string
		g          *Graph
		save       SaveOptions
		cacheBytes int64 // -1: a quarter of the way from loading every page to reading every row
		reads      int   // random row reads per goroutine; 0 reads one fresh page
	}{
		{"page-per-block", randomTestGraph(rand.New(rand.NewSource(11)), 400, 3000), SaveOptions{BlockBytes: 128}, 256, 5000},
		{"pages-in-blocks", paged, SaveOptions{}, 256 << 10, 1500},
		{"first-reads-of-one-page", paged, SaveOptions{}, 0, 0},
		{"first-reads-drive-eviction", paged, SaveOptions{}, -1, 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			path := saveV2(t, t.TempDir(), "conc", g, tc.save)
			cacheBytes := tc.cacheBytes
			if cacheBytes < 0 {
				all, err := OpenMapped(path)
				if err != nil {
					t.Fatal(err)
				}
				s := all.blocks
				for p := range s.pages {
					if s.slots[p].Load() == nil {
						s.miss(p)
					}
				}
				loads := s.resBytes.Load()
				for v := range int32(g.NumNodes()) {
					all.Neighbors(v)
				}
				cacheBytes = loads + (s.resBytes.Load()-loads)/4
				all.Close()
			}
			got, err := OpenMappedOpts(path, OpenOptions{BlockCacheBytes: cacheBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			// withinBudget checks the budget and that the resident bytes are
			// the sum of the resident pages' charges.
			withinBudget := func() error {
				s := got.blocks
				s.mu.Lock()
				defer s.mu.Unlock()
				sum := int64(0)
				for p := range s.slots {
					if pg := s.slots[p].Load(); pg != nil {
						sum += pg.bytes
					}
				}
				if res := s.resBytes.Load(); res != sum || res > s.capBytes {
					return fmt.Errorf("resident bytes %d, resident pages charged %d, budget %d", res, sum, s.capBytes)
				}
				return nil
			}
			var page []int32 // tc.reads == 0: the rows of the loaded page
			if tc.reads == 0 {
				s := got.blocks
				p := len(s.pages) / 2
				for s.slots[p].Load() != nil || s.pages[p].count < 64 {
					p++
				}
				pg, pm := s.miss(p), s.pages[p]
				for i := int32(0); i < pm.count; i++ {
					if decoded(pg, i) {
						t.Fatalf("row %d of a freshly loaded page is decoded", pm.first+i)
					}
					page = append(page, pm.first+i)
				}
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					nodes := make([]int32, tc.reads)
					for i := range nodes {
						nodes[i] = int32(rng.Intn(g.NumNodes()))
					}
					if page != nil {
						nodes = slices.Clone(page)
						rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
					}
					<-start
					for _, v := range nodes {
						want, row := g.Neighbors(v), got.Neighbors(v)
						if len(want) != len(row) {
							errs <- fmt.Errorf("node %d: degree %d vs %d", v, len(row), len(want))
							return
						}
						for j := range want {
							if want[j] != row[j] {
								errs <- fmt.Errorf("node %d: neighbor[%d] = %d, want %d", v, j, row[j], want[j])
								return
							}
						}
					}
				}(int64(w))
			}
			close(start)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			st, _ := got.BlockCacheStats()
			if page != nil {
				if st.Evictions != 0 || st.Hits < uint64(8*len(page)) {
					t.Fatalf("fresh-page reads were not all hits on one resident page: %+v for %d rows", st, len(page))
				}
				return
			}
			if st.Misses == 0 || st.Hits == 0 || st.Evictions == 0 {
				t.Fatalf("degenerate cache traffic: %+v", st)
			}
			if st.ResidentBytes < 0 {
				t.Fatalf("negative resident bytes: %+v", st)
			}
			// Every read is one or the other (the open-time hub index adds
			// a few of its own).
			if st.Hits+st.Misses < uint64(8*tc.reads) {
				t.Fatalf("per-page hit counters lost reads: %+v for %d reads", st, 8*tc.reads)
			}
			if tc.cacheBytes >= 0 {
				return
			}
			if err := withinBudget(); err != nil || st.ResidentBytes > got.blocks.capBytes {
				t.Fatalf("after concurrent reads: %v; %+v", err, st)
			}
			rng := rand.New(rand.NewSource(99))
			for range tc.reads {
				v := int32(rng.Intn(g.NumNodes()))
				got.Neighbors(v)
				if err := withinBudget(); err != nil {
					t.Fatalf("after reading node %d: %v", v, err)
				}
			}
			// A reader that loaded page 0 before the hand evicted it opens
			// a slab in it that is not charged: the page left the budget.
			s := got.blocks
			evict := func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				if pg := s.slots[0].Load(); pg != nil {
					s.slots[0].Store(nil)
					s.resBytes.Add(-pg.bytes)
					s.resPages.Add(-1)
				}
			}
			evict()
			pg := s.miss(0)
			evict()
			res := s.resBytes.Load()
			s.firstRead(0, pg, 0)
			if err := withinBudget(); err != nil || pg.n != 1 || s.resBytes.Load() != res {
				t.Fatalf("first read of an evicted page opened %d slabs, resident bytes %d -> %d: %v", pg.n, res, s.resBytes.Load(), err)
			}
		})
	}
}

// TestGCSRV2CorruptionAfterOpen changes a byte of a heap-backed image after
// the open-time sweep accepted it, and the next read of a row from the
// changed bytes must fail loudly instead of serving them. Before its page
// loads, the page miss's block CRC catches the change; after, the row's
// first read does, by re-running the CRC over the row's chunks.
func TestGCSRV2CorruptionAfterOpen(t *testing.T) {
	g, _ := pagedTestGraph()
	readPanic := func(got *Graph, vs ...int32) string {
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			for _, v := range vs {
				got.Neighbors(v)
			}
		}()
		return msg
	}
	t.Run("block-before-its-page-loads", func(t *testing.T) {
		img := v2Image(t, g, SaveOptions{})
		got, _, err := buildV2Graph(img, OpenOptions{BlockCacheBytes: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		pages := got.blocks.pages
		a, b := pages[len(pages)-2], pages[len(pages)-1]
		if a.block != b.block {
			t.Fatal("fixture's last block has a single page")
		}
		img[len(img)-1] ^= 0x01 // the last byte of the last block
		// With one resident page, at most one of the block's pages a and b
		// is still cached; the other read is a miss.
		if msg := readPanic(got, a.first, b.first); !strings.Contains(msg, "backing file modified?") || !strings.Contains(msg, "checksum") {
			t.Fatalf("reads of a block changed after open: recovered %q, want the loud decode panic", msg)
		}
	})
	t.Run("unread-row-of-a-loaded-page", func(t *testing.T) {
		img := v2Image(t, g, SaveOptions{})
		got, _, err := buildV2Graph(img, OpenOptions{}, false)
		if err != nil {
			t.Fatal(err)
		}
		s := got.blocks
		p := len(s.pages) - 1
		pm := s.pages[p]
		bm := s.metas[pm.block]
		read := pm.first
		want := g.Neighbors(read)
		if !slices.Equal(got.Neighbors(read), want) {
			t.Fatalf("row %d differs before any change", read)
		}
		pg := s.slots[p].Load()
		// The change must still decode to a valid row: when the row's last
		// varint is one byte, one more on it puts the last neighbor one
		// further out. So only the chunk re-check can tell the row changed.
		victim := pm.first + pm.count - 1
		for ; victim > read; victim-- {
			row := g.Neighbors(victim)
			if len(row) == 0 || decoded(pg, victim-pm.first) {
				continue
			}
			last := row[len(row)-1] + 1
			end := bm.off + int64(pm.end)
			if victim+1 < pm.first+pm.count {
				end = bm.off + int64(pm.start) + int64(s.rowAt[victim+1])
			}
			if img[end-2] < 0x80 && img[end-1] < 0x7f && int(last) < g.NumNodes() && last != victim {
				img[end-1]++
				break
			}
		}
		if victim == read {
			t.Fatal("no row of the fixture's last page can take a valid change")
		}
		if msg := readPanic(got, victim); !strings.Contains(msg, "backing file modified?") {
			t.Fatalf("first read of row %d after its bytes changed: recovered %q, want the loud decode panic", victim, msg)
		}
		if !slices.Equal(got.Neighbors(read), want) {
			t.Fatalf("row %d, decoded before the change, now reads differently", read)
		}
	})
}

// TestGCSRV2WarmProbesAllocationFree is the v2 counterpart of
// TestProbesAllocationFree: once every block is resident, row reads and
// probes must not allocate (the property that keeps warm walk steps free).
// The first reads of rows whose pages are resident allocate exactly the
// slabs they open, one allocation each.
func TestGCSRV2WarmProbesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomTestGraph(rng, 600, 6000)
	dir := t.TempDir()
	path := saveV2(t, dir, "warm", g, SaveOptions{BlockBytes: 1 << 10})
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	s := got.blocks
	var unread []int32 // rows of loaded pages, never read
	for p, pm := range s.pages {
		pg := s.slots[p].Load()
		if pg == nil {
			pg = s.miss(p)
		}
		for i := int32(0); i < pm.count; i++ {
			if !decoded(pg, i) {
				unread = append(unread, pm.first+i)
			}
		}
	}
	opened := func() (n int32) {
		for p := range s.slots {
			n += s.slots[p].Load().n
		}
		return n
	}
	// AllocsPerRun calls the function once before it counts: each call
	// reads half of the unread rows, so the counted call reads the second
	// half, for the first time.
	half := len(unread) / 2
	var sink int
	var slabs int32 // opened by the last call
	if n := testing.AllocsPerRun(1, func() {
		before := opened()
		for _, v := range unread[:half] {
			sink += len(got.Neighbors(v))
		}
		unread = unread[half:]
		slabs = opened() - before
	}); n != float64(slabs) || slabs == 0 || half < 100 {
		t.Fatalf("first reads of %d rows in loaded pages opened %d slabs and allocated %.0f times", half, slabs, n)
	}
	for v := int32(0); v < int32(got.NumNodes()); v++ {
		got.Neighbors(v) // warm every row
	}
	if n := testing.AllocsPerRun(200, func() {
		row := got.Neighbors(17)
		sink += len(row)
		if got.HasEdge(17, 29) {
			sink++
		}
		sink += got.CommonNeighbors(17, 29)
	}); n != 0 {
		t.Fatalf("warm v2 probes allocate %.1f times per run", n)
	}
	_ = sink
}

// mutateV2 writes a valid v2 image, applies mutate, and returns the bytes.
func v2Image(t *testing.T, g *Graph, o SaveOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGCSRV2Corruption(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomTestGraph(rng, 200, 1500)
	base := v2Image(t, g, SaveOptions{BlockBytes: 256})
	// Offsets into the fixed header.
	const (
		verOff   = 4
		nOff     = 8
		mOff     = 16
		degOff   = 24
		blksOff  = 32
		flagsOff = 40
		crcOff   = 44
	)
	fixMetaCRC := func(img []byte) {
		h, err := parseV2Header(img)
		if err != nil {
			return
		}
		end := h.blocksStart()
		if end > int64(len(img)) {
			end = int64(len(img))
		}
		binary.LittleEndian.PutUint32(img[crcOff:], crc32.Checksum(img[gcsrV2HeaderSize:end], castagnoli))
	}
	cases := []struct {
		name    string
		mutate  func(img []byte) []byte
		wantSub string
	}{
		{"bad magic", func(img []byte) []byte { img[0] = 'X'; return img }, "bad magic"},
		{"version 3", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[verOff:], 3)
			return img
		}, "unsupported format version"},
		{"unknown flags", func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[flagsOff:], 0x80)
			return img
		}, "unknown flag bits"},
		{"meta checksum", func(img []byte) []byte {
			img[gcsrV2HeaderSize] ^= 0xff // first index byte
			return img
		}, "metadata checksum"},
		{"lying node count", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[nOff:], uint64(g.NumNodes()+1))
			return img
		}, "blocks cover"},
		{"lying edge count", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[mOff:], uint64(g.NumEdges()-1))
			return img
		}, "header promises"},
		{"lying max degree", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[degOff:], uint64(g.MaxDegree()+1))
			return img
		}, "max degree"},
		{"zero blocks", func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[blksOff:], 0)
			return img
		}, "no blocks"},
		{"truncated", func(img []byte) []byte { return img[:len(img)-3] }, "does not tile the block region"},
		{"trailing bytes", func(img []byte) []byte { return append(img, 0xAA) }, "trailing bytes"},
		{"block bit flip", func(img []byte) []byte {
			img[len(img)-1] ^= 0x01 // inside the last block's payload
			return img
		}, "checksum"},
		{"row count lies", func(img []byte) []byte {
			// A consistent-looking single-block image whose one block
			// claims 1000 rows in 10 encoded bytes: the tiling checks all
			// pass, so only the rows-per-byte plausibility guard can stop
			// the outsized row allocation.
			img = make([]byte, gcsrV2HeaderSize+gcsrV2IndexEntry+10)
			copy(img[0:4], gcsrMagic)
			binary.LittleEndian.PutUint32(img[verOff:], 2)
			binary.LittleEndian.PutUint64(img[nOff:], 1000)
			binary.LittleEndian.PutUint64(img[mOff:], 0)
			binary.LittleEndian.PutUint64(img[degOff:], 0)
			binary.LittleEndian.PutUint64(img[blksOff:], 1)
			idx := img[gcsrV2HeaderSize:]
			binary.LittleEndian.PutUint32(idx[4:8], 1000) // count
			binary.LittleEndian.PutUint64(idx[16:24], uint64(gcsrV2HeaderSize+gcsrV2IndexEntry))
			binary.LittleEndian.PutUint32(idx[24:28], 10) // encLen
			fixMetaCRC(img)
			return img
		}, "encoded bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.mutate(append([]byte(nil), base...))
			if _, err := FromImage(img, OpenOptions{}); err == nil {
				t.Fatal("portable read accepted a corrupt v2 image")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("portable read error %q does not mention %q", err, tc.wantSub)
			}
			// The mmap path must reject the same image.
			path := filepath.Join(t.TempDir(), "corrupt.gcsr")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := OpenMapped(path); err == nil {
				got.Close()
				t.Fatal("mapped open accepted a corrupt v2 image")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("mapped open error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestGCSRV2KeepIDsEmbedded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomTestGraph(rng, 100, 400)
	ids := make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i)*1000 + 7
	}
	dir := t.TempDir()
	path := saveV2(t, dir, "ids", g, SaveOptions{IDs: ids, BlockBytes: 512})
	for _, open := range []struct {
		name string
		fn   func() (*Graph, error)
	}{
		{"load", func() (*Graph, error) { return load(path) }},
		{"mapped", func() (*Graph, error) { return OpenMapped(path) }},
	} {
		t.Run(open.name, func(t *testing.T) {
			got, err := open.fn()
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if !got.HasOriginalIDs() {
				t.Fatal("embedded IDs not surfaced")
			}
			for v := range ids {
				if got.OriginalID(int32(v)) != ids[v] {
					t.Fatalf("OriginalID(%d) = %d, want %d", v, got.OriginalID(int32(v)), ids[v])
				}
			}
		})
	}
	// Wrong-length IDs must be rejected at save time.
	if err := SaveOpts(filepath.Join(dir, "bad.gcsr"), g, SaveOptions{Version: 2, IDs: ids[:3]}); err == nil {
		t.Fatal("SaveOpts accepted a short ID mapping")
	}
	// Version 1 cannot embed IDs.
	if err := SaveOpts(filepath.Join(dir, "v1ids.gcsr"), g, SaveOptions{Version: 1, IDs: ids}); err == nil {
		t.Fatal("SaveOpts accepted embedded IDs for version 1")
	}
}

// A graph with no nodes packed with its (empty) ID mapping keeps it either
// way: embedded in a v2 file or in a v1 file's .gids sidecar.
func TestEmptyGraphKeptIDsAgree(t *testing.T) {
	g := NewBuilder(0).Build()
	dir := t.TempDir()
	v2 := saveV2(t, dir, "empty-v2", g, SaveOptions{IDs: []int64{}})
	v1 := filepath.Join(dir, "empty.gcsr")
	if err := Save(v1, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveIDs(IDsSidecarPath(v1), []int64{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, v2} {
		got, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.HasOriginalIDs() || got.NumNodes() != 0 || len(got.OriginalIDs()) != 0 {
			t.Errorf("%s: HasOriginalIDs %v over %d nodes and %d IDs, want true, 0, 0",
				filepath.Base(path), got.HasOriginalIDs(), got.NumNodes(), len(got.OriginalIDs()))
		}
		got.Close()
	}
}

func TestGIDSSidecar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomTestGraph(rng, 80, 300)
	ids := make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i) + 1_000_000
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gcsr")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	side := IDsSidecarPath(path)
	if err := SaveIDs(side, ids); err != nil {
		t.Fatal(err)
	}
	got, err := LoadIDs(side)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("LoadIDs[%d] = %d, want %d", i, got[i], ids[i])
		}
	}
	// Open attaches the sidecar automatically.
	og, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !og.HasOriginalIDs() || og.OriginalID(5) != ids[5] {
		t.Fatalf("Open did not attach the sidecar (has=%v)", og.HasOriginalIDs())
	}
	og.Close()
	// A corrupt sidecar fails the open rather than serving wrong IDs.
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(side, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if og, err := Open(path, OpenOptions{}); err == nil {
		og.Close()
		t.Fatal("Open accepted a corrupt sidecar")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("sidecar error %q does not mention checksum", err)
	}
	// A sidecar for a different graph (wrong n) is rejected too.
	if err := SaveIDs(side, ids[:10]); err != nil {
		t.Fatal(err)
	}
	if og, err := Open(path, OpenOptions{}); err == nil {
		og.Close()
		t.Fatal("Open accepted a mismatched sidecar")
	}
}

func TestReadEdgeListKeepIDs(t *testing.T) {
	in := "1000 2000\n2000 3000\n1000 3000\n# comment\n3000 4000\n"
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path, OpenOptions{KeepIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %v", g)
	}
	want := []int64{1000, 2000, 3000, 4000}
	for i, w := range want {
		if got := g.OriginalID(int32(i)); got != w {
			t.Fatalf("OriginalID(%d) = %d, want %d", i, got, w)
		}
	}
	// The plain reader still keeps no mapping.
	if g, err := readEdgeList(strings.NewReader(in), false); err != nil || g.HasOriginalIDs() {
		t.Fatalf("readEdgeList: err %v, HasOriginalIDs %v", err, g.HasOriginalIDs())
	}
}

// TestGCSRV2VersionDispatch checks v1 files keep opening (zero-copy) and v2
// files are auto-detected by the same entry points.
func TestGCSRV2VersionDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomTestGraph(rng, 150, 900)
	dir := t.TempDir()
	v1 := filepath.Join(dir, "g1.gcsr")
	if err := Save(v1, g); err != nil {
		t.Fatal(err)
	}
	v2 := saveV2(t, dir, "g2", g, SaveOptions{})
	for _, path := range []string{v1, v2} {
		got, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, g, got)
		got.Close()
	}
	g1, err := OpenMapped(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	if _, ok := g1.BlockCacheStats(); ok {
		t.Fatal("v1 open took the block-compressed path")
	}
	if _, ok := g1.BlockCacheStats(); ok {
		t.Fatal("v1 graph reports block-cache stats")
	}
}

// FuzzGCSRRead feeds arbitrary images of either format version to
// fromImage, the one builder every open goes through: it must never panic,
// and anything it accepts must pass full structural validation (the same
// accept-implies-valid property the GEST/GDPA codec fuzzers pin). An
// accepted image is therefore symmetric, so the component labels its open
// pass makes must be referenceComponents', and the largest component, taken
// from those labels as OpenLCC takes it or by LargestComponent, must be the
// one LargestComponent takes from a Builder rebuild of the graph.
func FuzzGCSRRead(f *testing.F) {
	rng := rand.New(rand.NewSource(51))
	g := randomTestGraph(rng, 60, 250)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g, SaveOptions{BlockBytes: 128}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	ids := make([]int64, g.NumNodes())
	for i := range ids {
		ids[i] = int64(i) * 3
	}
	buf.Reset()
	if err := WriteBinaryV2(&buf, g, SaveOptions{BlockBytes: 64, IDs: ids}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	if err := WriteBinaryV2(&empty, NewBuilder(0).Build(), SaveOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// Version 1: a random graph, the empty graph, and a star whose center
	// owns a hub row.
	for _, g := range []*Graph{g, NewBuilder(0).Build(), starGraph(70)} {
		var v1 bytes.Buffer
		if err := WriteBinary(&v1, g); err != nil {
			f.Fatal(err)
		}
		f.Add(v1.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, uf, err := fromImage(data, OpenOptions{}, true)
		if err != nil {
			return
		}
		if err := Validate(g); err != nil {
			t.Fatalf("accepted image fails validation: %v", err)
		}
		comp, sizes := uf.labels()
		refComp, refSizes := referenceComponents(g)
		if (len(sizes) <= 1) != (len(refSizes) <= 1) || !slices.Equal(comp, refComp) || !slices.Equal(sizes, refSizes) {
			t.Fatalf("open pass labels %v (sizes %v), reference %v (sizes %v)", comp, sizes, refComp, refSizes)
		}
		b := NewBuilder(g.NumNodes())
		g.Edges(func(u, v int32) bool { b.AddEdge(u, v); return true })
		ref, _ := LargestComponent(b.Build())
		want := v1Image(t, ref)
		got, _ := LargestComponent(g)
		if !bytes.Equal(v1Image(t, got), want) {
			t.Fatal("LargestComponent of the opened graph differs from the rebuild's")
		}
		if len(sizes) > 1 {
			opened, _ := extractLargest(g, comp, sizes)
			if !bytes.Equal(v1Image(t, opened), want) {
				t.Fatal("the open pass's largest component differs from the rebuild's")
			}
		}
	})
}

// decodeV2Block decodes one block's rows into freshly allocated local
// off/adj arrays, verifying the CRC and every structural invariant the walk
// depends on (see decodeRow). It is the whole-block reference the page
// decode is fuzzed against.
func decodeV2Block(data []byte, bm blockMeta, n int64) (off, adj []int32, err error) {
	if err := checkBlockCRC(crc32.Checksum(data, castagnoli), bm); err != nil {
		return nil, nil, err
	}
	off = make([]int32, bm.count+1)
	adj = make([]int32, bm.arcs)
	if err := decodeRows(data, bm.first, n, off, adj, nil); err != nil {
		return nil, nil, err
	}
	return off, adj, nil
}

// FuzzGCSRV2Block fuzzes the row decoder directly with adversarial index
// metadata: whatever the mutated count/arc claims, it must stay in bounds
// and reject inconsistencies instead of panicking. An accepted block is then
// served the way the page cache serves it: cut into pages of target bytes,
// every page loaded (block CRC, chunk states, an empty row index and slab
// table) and every row decoded on its first read into a slab of its page,
// through the row starts recorded with the cuts, in a seeded random order
// that the pages' slab tables must hold; that must give the
// whole-block decode's rows. Then the block is changed at one byte (flip)
// under those recorded cuts, twice. After its pages loaded, each row must
// read as before or fail, and the row holding the changed byte must fail.
// Before they loaded, with the index CRC restamped to match so that only the
// row checks stand between the change and a reader, each row served must be
// a valid row, and if every row is served the rows must be the changed
// block's whole-block decode: row by row is at least as strict as the whole
// block.
func FuzzGCSRV2Block(f *testing.F) {
	row := appendEncodedRow(nil, []int32{1, 2, 9})
	row = appendEncodedRow(row, []int32{0, 2})
	f.Add(row, int32(0), int32(2), int32(5), int64(10), uint8(3), uint32(1)<<24|2)
	f.Add([]byte{}, int32(0), int32(1), int32(0), int64(1), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, first, count, arcs int32, n int64, target uint8, flip uint32) {
		if count < 0 || count > int32(len(data)) || arcs < 0 || arcs > int32(len(data)) {
			return // parseV2 bounds these before any decode
		}
		if n < 0 || n > 1<<31-1 {
			return
		}
		bm := blockMeta{
			first:  first,
			count:  count,
			arcs:   arcs,
			crc:    crc32.Checksum(data, castagnoli),
			encLen: int32(len(data)),
		}
		off, adj, err := decodeV2Block(data, bm, n)
		if err != nil {
			return
		}
		if int32(len(adj)) != arcs || off[count] != arcs {
			t.Fatalf("accepted block decodes %d arcs, index says %d", len(adj), arcs)
		}
		for i := int32(0); i < count; i++ {
			if err := checkRow(adj[off[i]:off[i+1]], int64(first)+int64(i), n); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		if count == 0 || first < 0 || int64(first)+int64(count) > n {
			return // parseV2 admits no such block, so none is ever cut
		}

		ends := make([]int32, count)
		if err := decodeRows(data, first, n, off, adj, ends); err != nil {
			t.Fatalf("second decode of an accepted block: %v", err)
		}
		rowAt := make([]uint16, count)
		pages := appendPages(nil, 0, bm, off, ends, int32(target), rowAt)
		heap := make([]int64, count+1) // the prefix sums the open-time sweep keeps
		pageOf := make([]int, count)
		for i, o := range off {
			heap[i] = int64(o)
		}
		for p, pm := range pages {
			for r := pm.first - first; r < pm.first-first+pm.count; r++ {
				pageOf[r] = p
			}
		}
		// load loads every page of img, as cache misses do.
		load := func(img []byte, bm blockMeta) []*decodedPage {
			pgs := make([]*decodedPage, len(pages))
			for p, pm := range pages {
				r := pm.first - first
				pg, err := loadPage(img, bm, pm, heap[r:r+pm.count+1])
				if err != nil {
					t.Fatalf("page %d of %d fails its load: %v", p, len(pages), err)
				}
				pgs[p] = pg
			}
			return pgs
		}
		// read reads every row from the loaded pages, each for the first
		// time, in a seeded random order.
		order := rand.New(rand.NewSource(int64(flip))).Perm(int(count))
		read := func(img []byte, pgs []*decodedPage) ([][]int32, []error) {
			rows, errs := make([][]int32, count), make([]error, count)
			for _, i := range order {
				pm, pg := pages[pageOf[i]], pgs[pageOf[i]]
				r := pm.first - first
				j := int32(i) - r
				rows[i], _, errs[i] = pg.fill(j, img[pm.start:pm.end], rowAt[r:r+pm.count], n)
			}
			return rows, errs
		}

		rows, errs := read(data, load(data, bm))
		for i := range rows {
			if errs[i] != nil || !slices.Equal(rows[i], adj[off[i]:off[i+1]]) {
				t.Fatalf("row %d read from its page (%d pages) differs from the whole-block decode: %v", i, len(pages), errs[i])
			}
		}

		changed := bytes.Clone(data)
		pgs := load(changed, bm)
		at := int32(flip&0xffffff) % int32(len(changed))
		changed[at] ^= byte(flip>>24) | 1
		rows, errs = read(changed, pgs)
		for i := range rows {
			start := int32(0)
			if i > 0 {
				start = ends[i-1]
			}
			switch {
			case errs[i] == nil && !slices.Equal(rows[i], adj[off[i]:off[i+1]]):
				t.Fatalf("row %d reads differently after its page loaded", i)
			case errs[i] == nil && start <= at && at < ends[i]:
				t.Fatalf("row %d served although its byte %d changed after its page loaded", i, at)
			}
		}

		bm.crc = crc32.Checksum(changed, castagnoli)
		rows, errs = read(changed, load(changed, bm))
		served := 0
		for i := range rows {
			if errs[i] != nil {
				continue
			}
			served++
			if err := checkRow(rows[i], int64(first)+int64(i), n); err != nil {
				t.Fatalf("row %d of a changed block served: %v", i, err)
			}
		}
		if served < len(rows) {
			return
		}
		off, adj, err = decodeV2Block(changed, bm, n)
		if err != nil {
			t.Fatalf("rows accepted a changed block the whole-block decode rejects: %v", err)
		}
		for i := range rows {
			if !slices.Equal(rows[i], adj[off[i]:off[i+1]]) {
				t.Fatal("rows and whole-block decode disagree on a changed block")
			}
		}
	})
}

// decoded reports whether row first+i of pg has been decoded.
func decoded(pg *decodedPage, i int32) bool {
	_, ok := pg.row(i)
	return ok
}

// checkRow reports why row cannot be node v's in a graph of n nodes: a
// neighbor out of range or equal to v, or neighbors not strictly ascending.
func checkRow(row []int32, v, n int64) error {
	for j, u := range row {
		if int64(u) >= n || u < 0 || int64(u) == v {
			return fmt.Errorf("invalid neighbor %d", u)
		}
		if j > 0 && row[j-1] >= u {
			return fmt.Errorf("not strictly ascending at %d", j)
		}
	}
	return nil
}

// TestCommonNeighborsHubRowMatchesMerge: the hub-row count CommonNeighbors
// takes when the higher-degree endpoint owns a bitset row equals a plain
// merge of the two rows and len(CommonNeighborsInto) — over hub–hub, hub–leaf
// and leaf–leaf pairs, in both argument orders, on a heap-built graph and on
// the same graph opened from v1 and v2 files.
func TestCommonNeighborsHubRowMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, hubs = 1200, 6
	b := NewBuilder(n)
	for h := int32(0); h < hubs; h++ {
		for v := int32(0); v < n; v++ {
			if rng.Intn(10) < 2+int(h) { // hub degrees from ~0.2n to ~0.7n
				b.AddEdge(h, v)
			}
		}
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	heap := b.Build()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1"+GCSRExt)
	if err := Save(v1, heap); err != nil {
		t.Fatal(err)
	}
	v2 := saveV2(t, dir, "v2", heap, SaveOptions{BlockBytes: 512})
	for _, tc := range []struct {
		name string
		open func() (*Graph, error)
	}{
		{"heap", func() (*Graph, error) { return heap, nil }},
		{"v1", func() (*Graph, error) { return OpenMapped(v1) }},
		{"v2", func() (*Graph, error) { return OpenMappedOpts(v2, OpenOptions{BlockCacheBytes: 16 << 10}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			var leaves []int32
			for v := int32(hubs); v < n && len(leaves) < 40; v++ {
				if g.IsHub(v) {
					t.Fatalf("node %d (degree %d) unexpectedly a hub", v, g.Degree(v))
				}
				leaves = append(leaves, v)
			}
			nodes := leaves
			for h := int32(0); h < hubs; h++ {
				if !g.IsHub(h) {
					t.Fatalf("node %d (degree %d) has no hub row", h, g.Degree(h))
				}
				nodes = append(nodes, h)
			}
			var buf []int32
			for _, u := range nodes {
				for _, v := range nodes {
					if u == v {
						continue
					}
					want := 0
					a, b := g.Neighbors(u), g.Neighbors(v)
					for i, j := 0, 0; i < len(a) && j < len(b); {
						switch {
						case a[i] < b[j]:
							i++
						case a[i] > b[j]:
							j++
						default:
							want++
							i++
							j++
						}
					}
					buf = g.CommonNeighborsInto(buf[:0], u, v)
					if got := g.CommonNeighbors(u, v); got != want || len(buf) != want {
						t.Fatalf("(%d,%d) degrees %d/%d: CommonNeighbors %d, CommonNeighborsInto %d, merge %d",
							u, v, len(a), len(b), got, len(buf), want)
					}
				}
			}
		})
	}
}
