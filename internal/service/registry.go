// Package service turns the estimation engine into a long-running,
// multi-graph daemon on top of the parallel walker ensemble:
//
//   - a graph Registry of named graphs (edge-list files or stand-in
//     datasets), listed, introspected and removable over HTTP;
//   - an async job Manager: POST an estimation Spec, get a job ID, poll
//     live progress snapshots or stream them as server-sent events, cancel
//     via context cancellation plumbed down to step granularity inside the
//     walker ensemble;
//   - a weighted-fair priority scheduler (scheduler.go): interactive >
//     batch > background classes under per-class deficit accounting, so
//     short jobs overtake long crawls without starving them. It is plain
//     data under the Manager's one lock, which also guards the job table
//     and the journal's append queue, and a worker pops a job and marks it
//     running in one critical section;
//   - a durable journal (store.go + the journal subpackage): with a data
//     dir, every lifecycle transition is logged append-only and replayed on
//     restart — the job table rebuilds, the result cache warms, and
//     interrupted jobs re-queue;
//   - a result cache with request coalescing: identical specs are answered
//     from an LRU cache, and identical in-flight specs are deduplicated
//     single-flight, so a thundering herd of N clients costs one estimation
//     (sound because equal Config+Seed runs are byte-identical);
//   - a bounded worker pool sized with the shared trial-pool rule
//     (stats.PoolWorkers), so job parallelism × walkers stays at
//     GOMAXPROCS;
//   - one execution path (Manager.runJob): every dispatched job runs as
//     partitions of its walker ensemble through the internal/dist
//     coordinator — Spec.Nodes partitions on the peer fleet, or the one
//     partition [0, W) in this process — so resume, checkpointing,
//     resumed-step accounting and the journal's bytes are the same code
//     wherever the walkers run.
//
// cmd/graphletd wires the package to a TCP listener.
package service

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/obs"
)

// GraphInfo is the introspection record served for one registered graph.
type GraphInfo struct {
	Name      string `json:"name"`
	Source    string `json:"source"` // "dataset", "file", "gcsr", or "inline"
	Nodes     int    `json:"nodes"`
	Edges     int64  `json:"edges"`
	MaxDegree int    `json:"max_degree"`
	// OriginalIDs reports that the graph carries a dense→source node ID
	// mapping (packed with -keep-ids), so results can be translated back
	// into the caller's ID space.
	OriginalIDs bool `json:"original_ids,omitempty"`
}

// Registry holds the named graphs the daemon serves estimations over.
// A registered name cannot be re-bound in place — the result cache is keyed
// by graph name, so silently swapping topology under a live name would
// serve stale results. Remove unregisters a name (its cached results must
// be purged alongside, see Manager.DropGraph), after which the name may be
// registered afresh. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graph.Graph
	infos  map[string]GraphInfo
	gauge  *obs.GaugeVec // graphs by source; nil-safe obs no-ops when unwired
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		graphs: make(map[string]*graph.Graph),
		infos:  make(map[string]GraphInfo),
	}
}

// Add registers g under name. Registering an existing name is an error.
func (r *Registry) Add(name, source string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("service: empty graph name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return fmt.Errorf("service: graph %q already registered", name)
	}
	r.graphs[name] = g
	r.infos[name] = GraphInfo{
		Name:        name,
		Source:      source,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		MaxDegree:   g.MaxDegree(),
		OriginalIDs: g.HasOriginalIDs(),
	}
	r.gauge.With(source).Inc()
	return nil
}

// AddDataset registers the stand-in dataset's largest connected component
// under its own name.
func (r *Registry) AddDataset(name string) error {
	d, err := datasets.Get(name)
	if err != nil {
		return err
	}
	return r.Add(name, "dataset", d.Graph())
}

// AddFileOpts loads a graph file from path with the given open tuning (v2
// block-cache size), extracts its largest connected component (the paper's
// preprocessing), and registers it under name. The
// format is detected automatically: .gcsr binary CSR files (produced by
// graphlet-pack) are opened via the mmap path — zero-copy for v1, the
// bounded block-decode cache for v2 — so daemon start is near-instant and
// resident pages are shared with other processes mapping the same file;
// anything else is parsed as a text edge list. The components are labelled
// inside the open's own validation pass (graph.OpenLCC), so a pre-packed
// connected graph (graphlet-pack's default -lcc output) costs the open
// alone plus 4 transient bytes per node, is served directly from the
// mapping, and starts with a v2 file's page cache as empty as a plain open
// leaves it; a disconnected one is rebuilt on the heap by the LCC
// extraction, which reads the kept rows once more, in node order.
func (r *Registry) AddFileOpts(name, path string, o graph.OpenOptions) error {
	g, err := graph.OpenLCC(path, o)
	if err != nil {
		return fmt.Errorf("service: graph %q: %w", name, err)
	}
	source := "file"
	if graph.IsGCSR(path) {
		source = "gcsr"
	}
	if err := r.Add(name, source, g); err != nil {
		g.Close() // a rejected name must not keep the file mapped
		return err
	}
	return nil
}

// Remove unregisters name, reporting whether it was present. In-flight
// jobs against the graph keep their *graph.Graph reference and finish
// normally; jobs still queued fail cleanly at dispatch when their lookup
// misses. Callers must also purge the graph's cached results
// (Manager.DropGraph) before re-binding the name.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return false
	}
	r.gauge.With(r.infos[name].Source).Dec()
	delete(r.graphs, name)
	delete(r.infos, name)
	return true
}

// instrument wires the per-source graph-count gauge, seeding it from the
// graphs already registered (graphletd registers graphs before building the
// Manager whose metrics own the gauge).
func (r *Registry) instrument(g *obs.GaugeVec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauge = g
	counts := make(map[string]int64)
	for _, info := range r.infos {
		counts[info.Source]++
	}
	for source, n := range counts {
		g.With(source).Set(n)
	}
}

// BlockCacheStats aggregates the decoded-page cache counters of every
// registered block-compressed (.gcsr v2) graph; raw-CSR graphs contribute
// nothing. The metrics collector exposes the aggregate at scrape time;
// Blocks, which no metric exports, stays zero.
func (r *Registry) BlockCacheStats() graph.BlockCacheStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var agg graph.BlockCacheStats
	for _, g := range r.graphs {
		st, ok := g.BlockCacheStats()
		if !ok {
			continue
		}
		agg.ResidentBlocks += st.ResidentBlocks
		agg.ResidentBytes += st.ResidentBytes
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
	}
	return agg
}

// Get returns the graph registered under name.
func (r *Registry) Get(name string) (*graph.Graph, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.graphs[name]
	return g, ok
}

// Info returns the introspection record for name.
func (r *Registry) Info(name string) (GraphInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.infos[name]
	return info, ok
}

// List returns all registered graphs sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.infos))
	for _, info := range r.infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
