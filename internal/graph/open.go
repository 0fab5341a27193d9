package graph

import (
	"io"
	"os"
	"strings"
)

// OpenOptions tunes Open, OpenLCC and OpenMappedOpts.
type OpenOptions struct {
	// BlockCacheBytes bounds the decoded-page cache of a version-2 graph
	// (0 means DefaultBlockCacheBytes). Ignored for version-1 files, which
	// need no decode cache, and for edge lists.
	BlockCacheBytes int64
	// KeepIDs attaches the source node IDs of an edge-list input to the
	// graph (see Graph.OriginalID). A .gcsr input carries whatever it was
	// packed with — embedded (v2) or in its .gids sidecar (v1) — either way.
	KeepIDs bool
}

// IsGCSR reports whether path holds a .gcsr binary CSR image rather than a
// text edge list: the .gcsr extension wins, then the magic bytes are sniffed.
func IsGCSR(path string) bool {
	if strings.HasSuffix(strings.ToLower(path), GCSRExt) {
		return true
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	_, err = io.ReadFull(f, magic[:])
	return err == nil && string(magic[:]) == gcsrMagic
}

// Open is the one way a graph file becomes a Graph. The encoding is detected
// (IsGCSR): a .gcsr file of either version opens through the mmap path where
// available — zero-copy for v1, block-cached for v2 — with the .gids sidecar
// attached when the file embeds no original IDs and one sits next to it;
// anything else is parsed as a text edge list. Call Close on the returned
// graph when done with a mapped one.
func Open(path string, o OpenOptions) (*Graph, error) {
	if !IsGCSR(path) {
		return loadEdgeList(path, o.KeepIDs)
	}
	g, err := OpenMappedOpts(path, o)
	if err != nil {
		return nil, err
	}
	if !g.HasOriginalIDs() {
		if err := attachSidecarIDs(g, path); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// OpenLCC opens the graph file at path and returns its largest connected
// component, the paper's preprocessing. A connected input is returned as
// opened, so a graph packed from its LCC (graphlet-pack's default) is served
// straight from the mapping. A disconnected one is rebuilt on the heap with
// its original IDs composed through the renumbering, and the mapping of the
// full graph is released.
func OpenLCC(path string, o OpenOptions) (*Graph, error) {
	g, err := Open(path, o)
	if err != nil {
		return nil, err
	}
	lcc, _ := LargestComponent(g)
	if lcc != g {
		g.Close()
	}
	return lcc, nil
}
