//go:build !unix

package graph

// openMapped reads the file into memory on platforms without syscall.Mmap
// and builds the graph over that image (loadImage); the graph is
// heap-backed and Close is a no-op.
func openMapped(path string, o OpenOptions, label bool) (*Graph, forest, error) {
	return loadImage(path, o, label)
}
