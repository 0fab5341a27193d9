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
	g, _, err := open(path, o, false)
	return g, err
}

// open is Open that, when label is set, also returns the graph's union-find
// forest (see lcc.go): a .gcsr file's is fed by the open-time validation
// pass, an edge list's by reading the parsed graph's rows.
func open(path string, o OpenOptions, label bool) (*Graph, forest, error) {
	if !IsGCSR(path) {
		g, err := loadEdgeList(path, o.KeepIDs)
		if err != nil || !label {
			return g, nil, err
		}
		return g, rowForest(g), nil
	}
	g, f, err := openMapped(path, o, label)
	if err != nil {
		return nil, nil, err
	}
	if !g.HasOriginalIDs() {
		if err := attachSidecarIDs(g, path); err != nil {
			g.Close()
			return nil, nil, err
		}
	}
	return g, f, nil
}

// OpenLCC opens the graph file at path and returns its largest connected
// component, the paper's preprocessing. The components are labelled inside
// the open's own pass over the rows (see lcc.go), so a connected input —
// such as a graph packed from its LCC, graphlet-pack's default — is returned
// as opened, at the cost of the open plus n × 4 transient bytes: served
// straight from the mapping, with a v2 file's page cache as a plain open
// leaves it. A disconnected one is copied out on the heap, reading the kept
// rows once in node order, with its original IDs composed through the
// renumbering, and the mapping of the full graph is released.
func OpenLCC(path string, o OpenOptions) (*Graph, error) {
	g, f, err := open(path, o, true)
	if err != nil {
		return nil, err
	}
	comp, sizes := f.labels()
	if len(sizes) <= 1 {
		return g, nil
	}
	lcc, _ := extractLargest(g, comp, sizes)
	g.Close()
	return lcc, nil
}
