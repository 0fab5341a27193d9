//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// OpenMappedOpts opens a .gcsr file (either format version) via a read-only
// shared mmap and builds the graph over the mapping (fromImage). For version
// 1 on a little-endian host the off/adj arrays alias the page cache directly
// (zero copy), so no per-element decode or heap copy is made and resident
// memory is shared across processes mapping the same file; a big-endian host
// decodes them into heap arrays. For version 2 the encoded blocks stay
// mapped (shared, compressed) and decoded rows are served from a bounded
// per-graph cache sized by o.BlockCacheBytes. Opening still makes one
// sequential checksum-and-validation pass over the raw bytes (see the format
// docs), so open time is linear in file size but a large constant factor
// cheaper than parsing an edge list — tens of milliseconds per hundred MB,
// served from the page cache on warm opens. Call Close on the returned graph
// to release the mapping; the graph must not be used afterwards.
func OpenMappedOpts(path string, o OpenOptions) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < gcsrHeaderSize {
		return nil, fmt.Errorf("graph: %s: gcsr: file shorter than the %d-byte header", path, gcsrHeaderSize)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("graph: %s: %d bytes do not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	g, hotEnd, err := fromImage(data, o)
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	// Advise after validation: the open-time checksum pass is sequential
	// and benefits from default readahead; the accesses that follow are
	// random over the cold region (v1 adj / v2 blocks) and hot over the
	// prefix (v1 off array / v2 header+index+IDs).
	adviseMapped(data, hotEnd)
	g.unmap = func() error { return syscall.Munmap(data) }
	return g, nil
}
