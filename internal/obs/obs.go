// Package obs is the daemon's observability kit: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms, with
// optional label dimensions) rendered in Prometheus text exposition format
// v0.0.4, plus request-tracing middleware (request IDs, structured slog
// access logs, HTTP metrics) and liveness/readiness handlers.
//
// Design constraints, in order:
//
//   - Zero dependencies: stdlib only, so every layer of the repo (including
//     the journal) can record metrics without pulling a client library in.
//   - Cheap recording: counters and gauges are single atomic adds; a
//     histogram observation is a binary search plus two atomics. Nothing
//     allocates after registration, so instrumentation can sit on warm
//     paths (though never inside the walk step loop — the service records
//     walk metrics only at checkpoints).
//   - Nil-safety: every method no-ops on a nil receiver, so optional
//     instrumentation (journal.Options.Metrics and friends) needs no guards
//     at the call sites.
//
// All registry and metric methods are safe for concurrent use.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the default histogram layout for request-scale
// latencies: 500µs to 2 minutes, roughly logarithmic. Queue waits, run
// durations and HTTP request times all use it, so PromQL across them can
// aggregate on identical `le` labels.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// MicroLatencyBuckets is the layout for syscall-scale operations (journal
// appends): 1µs to half a second.
var MicroLatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d. Negative or zero deltas are ignored —
// counters only go up.
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative in the
// exposition ("le" upper bounds); an implicit +Inf bucket catches the
// overflow, so _count always equals the +Inf bucket by construction.
type Histogram struct {
	bounds  []float64      // sorted upper bounds, +Inf excluded
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64  // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound covers v ("le" semantics: v <= bound).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, +Inf excluded
	Cumulative []int64   // cumulative counts per bound, then the +Inf total
	Count      int64     // total observations (== Cumulative[len-1])
	Sum        float64
}

// Snapshot captures the histogram's current state. The cumulative counts
// are internally consistent (the +Inf entry equals Count); Sum is read
// separately and may trail by in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	cum := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: cum,
		Count:      total,
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
}

// metric family types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labeled instance of a family; exactly one of c/g/h is set.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all instances of one metric name.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

// labelKey joins label values into a map key. \xff cannot appear in valid
// UTF-8 label positions that would collide.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

// get returns (creating if needed) the child for the given label values.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...)}
		switch f.typ {
		case typeCounter:
			ch.c = &Counter{}
		case typeGauge:
			ch.g = &Gauge{}
		case typeHistogram:
			ch.h = &Histogram{
				bounds: f.buckets,
				counts: make([]atomic.Int64, len(f.buckets)+1),
			}
		}
		f.children[key] = ch
	}
	return ch
}

// snapshot copies the current child set for rendering.
func (f *family) snapshot() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*child, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	return out
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.get(values).c
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.get(values).g
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.get(values).h
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// OnCollect registers fn to run at the start of every exposition render.
// Collect-time refreshers keep pull-style gauges (queue depth, cache size,
// segment counts) current without instrumenting every mutation site.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// register returns the family for name, creating it with the given shape or
// validating that an existing registration matches (re-registering an
// identical metric is idempotent and returns the same family; a shape
// mismatch is a programming error and panics).
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	if typ == typeHistogram {
		f.buckets = normalizeBuckets(buckets)
	}
	r.fams[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeCounter, nil, nil).get(nil).c
}

// CounterVec registers (or finds) a counter family with label dimensions.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeGauge, nil, nil).get(nil).g
}

// GaugeVec registers (or finds) a gauge family with label dimensions.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or finds) an unlabeled histogram over the given
// bucket upper bounds (+Inf is implicit; nil buckets mean LatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeHistogram, nil, buckets).get(nil).h
}

// HistogramVec registers (or finds) a histogram family with label
// dimensions.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{fam: r.register(name, help, typeHistogram, labels, buckets)}
}

// normalizeBuckets sorts, dedups and strips +Inf (implicit) from a bucket
// layout, defaulting to LatencyBuckets.
func normalizeBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, +1) && !math.IsNaN(b) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
