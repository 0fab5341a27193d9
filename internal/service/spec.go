package service

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Spec is a complete description of one estimation request. Projected onto
// its comparable key (see key), it doubles as the result-cache and
// coalescing key: two submissions with equal keys are answered by one run,
// which is exact (not approximate) because the engine is deterministic in
// (Config, Seed).
type Spec struct {
	Graph string `json:"graph"`
	K     int    `json:"k"`
	// Sizes requests a multi-size job: one shared walk whose step budget is
	// paid once, yielding one estimate per listed size (each in the server's
	// allowlist, sorted and deduplicated at admission). Mutually exclusive
	// with K. On completion the result cache is fan-out-filled with one
	// entry per size, so later single-size requests for any covered k are
	// warm hits.
	Sizes   []int `json:"sizes,omitempty"`
	D       int   `json:"d"`
	CSS     bool  `json:"css"`
	NB      bool  `json:"nb"`
	Steps   int   `json:"steps"`
	Walkers int   `json:"walkers"`
	Seed    int64 `json:"seed"`
	// Priority selects the scheduling class ("interactive", "batch" or
	// "background"; empty means batch). It deliberately does not affect the
	// result — only when it is computed — so it is excluded from the cache
	// and coalescing key.
	Priority Priority `json:"priority,omitempty"`
	// Nodes requests distributed execution: the job's walkers fan out over
	// up to Nodes machines of the configured fleet (Options.Peers). 0 or 1
	// runs them as one partition in this process — the same execution path
	// with a shorter peer list. Like Priority it cannot affect the result bytes — a
	// distributed run is byte-identical to a local one — so it is excluded
	// from the cache and coalescing key: a 3-node run warms the cache for
	// local re-asks and vice versa.
	Nodes int `json:"nodes,omitempty"`
}

// specKey is the comparable projection of a Spec: the graph, the step budget
// and the engine config's canonical bytes (core.AppendConfig — the config
// section a GMST version 2 or 3 state and a GDPA version 2 assignment carry), so
// it holds exactly what determines the result bytes and cannot drift from
// what runs. Priority and Nodes stay out. All cache and single-flight lookups
// go through it, so an interactive re-ask of a background job's spec is a
// cache hit, not a second run.
type specKey struct {
	graph  string
	steps  int
	config string
}

// key projects the spec onto its comparable cache/coalescing key.
func (s Spec) key() specKey {
	var buf [32]byte
	return specKey{graph: s.Graph, steps: s.Steps, config: string(core.AppendConfig(buf[:0], s.config()))}
}

// multi reports whether the spec requests a shared-walk multi-size job.
func (s Spec) multi() bool { return len(s.Sizes) > 0 }

// sizes lists the graphlet sizes the spec asks for: Sizes, or the one K. A
// single-size job is a multi-size job with one size; which of the two fields
// a spec used only decides the shape of what leaves the process (JobView,
// Progress, journal records, the multi-size metric series).
func (s Spec) sizes() []int {
	if s.multi() {
		return s.Sizes
	}
	return []int{s.K}
}

// config maps the spec onto the engine configuration.
func (s Spec) config() core.MultiConfig {
	return core.MultiConfig{
		Sizes: s.sizes(), D: s.D, CSS: s.CSS, NB: s.NB,
		Walkers: s.Walkers, Seed: s.Seed,
	}
}

// shape renders per-size vectors in the wire form the spec calls for: the
// bare K entry for a spec submitted with k, the keyed map for one submitted
// with sizes.
func (s Spec) shape(bySize map[int][]float64) ([]float64, map[int][]float64) {
	if s.multi() {
		return nil, bySize
	}
	return bySize[s.K], nil
}

// sizeSpec is the single-size spec this spec covers for size k — the cache
// key that size's entry lives under (for a single-size spec, its own key).
// Sound because the engine's shared-walk per-size results are byte-identical
// to independent single-size runs of the same (Config, Seed).
func (s Spec) sizeSpec(k int) Spec {
	s.K, s.Sizes = k, nil
	return s
}

// validate admission-checks a spec (priority already normalized).
func (m *Manager) validate(spec Spec) error {
	if _, ok := m.reg.Get(spec.Graph); !ok {
		return fmt.Errorf("service: unknown graph %q", spec.Graph)
	}
	if spec.Walkers > m.opts.MaxWalkers {
		return fmt.Errorf("service: walkers %d exceeds server cap %d", spec.Walkers, m.opts.MaxWalkers)
	}
	if spec.multi() {
		if spec.K != 0 {
			return fmt.Errorf("service: spec sets both k and sizes; they are mutually exclusive")
		}
		for _, k := range spec.Sizes {
			if !slices.Contains(m.opts.MultiSizes, k) {
				return fmt.Errorf("service: size %d is not in the server's allowed sizes %v", k, m.opts.MultiSizes)
			}
		}
	}
	return checkSpec(spec)
}

// checkSpec is the part of admission that reads no server option: a spec
// it refuses could never run, whatever the daemon's flags. Replay applies
// it to every job it would re-queue, so a journaled spec no build would
// admit fails there rather than taking a worker slot.
func checkSpec(spec Spec) error {
	if spec.Steps <= 0 {
		return fmt.Errorf("service: non-positive step budget %d", spec.Steps)
	}
	if spec.Nodes < 0 || spec.Nodes > maxFanout {
		return fmt.Errorf("service: nodes %d out of range 0..%d", spec.Nodes, maxFanout)
	}
	return spec.config().Validate()
}
