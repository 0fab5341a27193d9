//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// openMapped maps a .gcsr file read-only and shared and builds the graph
// over the mapping (fromImage), with its union-find forest when label is
// set. For version 1 on a little-endian host the off/adj arrays alias the
// page cache directly (zero copy), so no per-element decode or heap copy is
// made and resident memory is shared across processes mapping the same
// file; a big-endian host decodes them into heap arrays. For version 2 the
// encoded blocks stay mapped (shared, compressed).
func openMapped(path string, o OpenOptions, label bool) (*Graph, forest, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < gcsrHeaderSize {
		return nil, nil, fmt.Errorf("graph: %s: gcsr: file shorter than the %d-byte header", path, gcsrHeaderSize)
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("graph: %s: %d bytes do not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(file.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	g, hotEnd, f, err := fromImage(data, o, label)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	// Advise after validation: the open-time checksum pass is sequential
	// and benefits from default readahead; the accesses that follow are
	// random over the cold region (v1 adj / v2 blocks) and hot over the
	// prefix (v1 off array / v2 header+index+IDs).
	adviseMapped(data, hotEnd)
	g.unmap = func() error { return syscall.Munmap(data) }
	return g, f, nil
}
