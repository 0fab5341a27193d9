package service

import (
	"repro/internal/access"
	"repro/internal/dist"
	"repro/internal/graph"
)

// maxFanout bounds Spec.Nodes; a fleet larger than this is outside the
// design envelope (and the walker cap keeps the useful fan-out far lower).
const maxFanout = 64

// PartitionLookup adapts the manager's registry and client factory to the
// worker endpoint's graph resolution, so a graphletd running with -worker
// serves partitions over exactly the graphs (and through exactly the access
// stack, Options.NewClient) its local jobs use.
func (m *Manager) PartitionLookup() func(name string) (access.Client, dist.GraphMeta, bool) {
	return func(name string) (access.Client, dist.GraphMeta, bool) {
		g, ok := m.reg.Get(name)
		if !ok {
			return nil, dist.GraphMeta{}, false
		}
		return m.opts.NewClient(g), distMeta(g), true
	}
}

func distMeta(g *graph.Graph) dist.GraphMeta {
	return dist.GraphMeta{Nodes: g.NumNodes(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
}
