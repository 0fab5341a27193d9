//go:build !unix

package graph

// OpenMappedOpts reads the file into memory on platforms without
// syscall.Mmap and builds the graph over that image (FromImage); the graph
// is heap-backed, Close is a no-op, and a version-2 graph's page cache is
// bounded by o.BlockCacheBytes as on every other host.
func OpenMappedOpts(path string, o OpenOptions) (*Graph, error) {
	return loadImage(path, o)
}
