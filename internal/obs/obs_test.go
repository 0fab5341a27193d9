package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// buildRegistry populates a registry with one of everything, including a
// label value that needs every escape rule.
func buildRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_ops_total", "Operations.").Add(7)
	r.Gauge("test_depth", "Depth.").Set(-3)
	cv := r.CounterVec("test_requests_total", "Requests by code.", "code", "path")
	cv.With("200", "/v1/jobs").Add(5)
	cv.With("404", `a\b"c`+"\nd").Inc()
	h := r.Histogram("test_latency_seconds", "Latency with a \\ and\nnewline in help.",
		[]float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := r.HistogramVec("test_wait_seconds", "Wait.", []float64{0.01, 0.1}, "class")
	hv.With("batch").Observe(0.02)
	return r
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition is a strict parser for the v0.0.4 text format: it fails
// the test on any malformed line, HELP/TYPE ordering violation, or sample
// whose base name has no TYPE.
func parseExposition(t *testing.T, text string) (samples []sample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	helped := make(map[string]bool)
	lastMeta := "" // family name of the preceding HELP, to enforce HELP-then-TYPE
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
			lastMeta = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if lastMeta != name {
				t.Fatalf("line %d: TYPE %s not preceded by its HELP", ln+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		s := parseSample(t, ln+1, line)
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(s.name, suffix); ok {
				if types[b] == "histogram" {
					base = b
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %s has no TYPE", ln+1, s.name)
		}
		samples = append(samples, s)
	}
	return samples, types
}

// parseSample parses `name{k="v",...} value`, undoing label escaping.
func parseSample(t *testing.T, ln int, line string) sample {
	t.Helper()
	s := sample{labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Find the closing quote, honoring backslash escapes.
			var val strings.Builder
			for {
				if rest == "" {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[0]
				if c == '"' {
					rest = rest[1:]
					break
				}
				if c == '\\' {
					if len(rest) < 2 {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c in %q", ln, rest[1], line)
					}
					rest = rest[2:]
					continue
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			s.labels[key] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	rest = strings.TrimPrefix(rest, " ")
	var err error
	if rest == "+Inf" {
		s.value = math.Inf(+1)
	} else if s.value, err = strconv.ParseFloat(rest, 64); err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, rest, err)
	}
	return s
}

func TestExpositionWellFormed(t *testing.T) {
	r := buildRegistry()
	text := render(t, r)
	samples, types := parseExposition(t, text)

	if types["test_ops_total"] != "counter" ||
		types["test_depth"] != "gauge" ||
		types["test_latency_seconds"] != "histogram" {
		t.Fatalf("missing or mistyped families: %v", types)
	}
	find := func(name string, labels map[string]string) (sample, bool) {
		for _, s := range samples {
			if s.name != name || len(s.labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
				}
			}
			if match {
				return s, true
			}
		}
		return sample{}, false
	}

	if s, ok := find("test_ops_total", nil); !ok || s.value != 7 {
		t.Errorf("test_ops_total = %v, %v; want 7", s.value, ok)
	}
	if s, ok := find("test_depth", nil); !ok || s.value != -3 {
		t.Errorf("test_depth = %v, %v; want -3", s.value, ok)
	}
	// The escaped label value round-trips through render + parse.
	want := map[string]string{"code": "404", "path": `a\b"c` + "\nd"}
	if s, ok := find("test_requests_total", want); !ok || s.value != 1 {
		t.Errorf("escaped-label counter = %+v, %v; want value 1", s, ok)
	}
	if !strings.Contains(text, `path="a\\b\"c\nd"`) {
		t.Errorf("exposition does not contain the escaped label value:\n%s", text)
	}
}

func TestExpositionHistogramInvariants(t *testing.T) {
	r := buildRegistry()
	samples, _ := parseExposition(t, render(t, r))

	// Gather the test_latency_seconds bucket series in output order.
	var bounds, counts []float64
	var sum, count float64
	haveSum, haveCount := false, false
	for _, s := range samples {
		switch s.name {
		case "test_latency_seconds_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if s.labels["le"] == "+Inf" {
				le, err = math.Inf(+1), nil
			}
			if err != nil {
				t.Fatalf("bad le %q", s.labels["le"])
			}
			bounds = append(bounds, le)
			counts = append(counts, s.value)
		case "test_latency_seconds_sum":
			sum, haveSum = s.value, true
		case "test_latency_seconds_count":
			count, haveCount = s.value, true
		}
	}
	if !haveSum || !haveCount {
		t.Fatal("histogram missing _sum or _count")
	}
	if len(bounds) != 5 || !math.IsInf(bounds[len(bounds)-1], +1) {
		t.Fatalf("bucket bounds = %v; want 4 finite then +Inf", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Errorf("le bounds not increasing: %v", bounds)
		}
		if counts[i] < counts[i-1] {
			t.Errorf("cumulative counts decrease: %v", counts)
		}
	}
	if got := counts[len(counts)-1]; got != count {
		t.Errorf("+Inf bucket %v != _count %v", got, count)
	}
	if count != 6 {
		t.Errorf("_count = %v; want 6", count)
	}
	// Observed 0.0005+0.005+0.005+0.05+0.5+5.
	if wantSum := 5.5605; math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("_sum = %v; want %v", sum, wantSum)
	}
	// Bucket contents: le=0.001 -> 1, le=0.01 -> 3, le=0.1 -> 4, le=1 -> 5.
	for i, want := range []float64{1, 3, 4, 5, 6} {
		if counts[i] != want {
			t.Errorf("bucket %d (le=%v) = %v; want %v", i, bounds[i], counts[i], want)
		}
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := buildRegistry()
	a, b := render(t, r), render(t, r)
	if a != b {
		t.Errorf("consecutive renders differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestHistogramObserveLeSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_edges", "Edge semantics.", []float64{1, 2})
	h.Observe(1) // exactly on a bound: le="1" must include it
	snap := h.Snapshot()
	if snap.Cumulative[0] != 1 {
		t.Errorf("observation on bucket bound not counted le-inclusive: %+v", snap)
	}
}

func TestRegistryIdempotentAndInvalid(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_twice_total", "Once.")
	b := r.Counter("test_twice_total", "Twice.")
	if a != b {
		t.Error("re-registering an identical counter returned a different handle")
	}
	mustPanic(t, "type mismatch", func() { r.Gauge("test_twice_total", "x") })
	mustPanic(t, "label mismatch", func() { r.CounterVec("test_twice_total", "x", "l") })
	mustPanic(t, "invalid name", func() { r.Counter("9bad", "x") })
	mustPanic(t, "invalid label", func() { r.CounterVec("test_l_total", "x", "__reserved") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestNilReceiversNoOp(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		cv *CounterVec
		gv *GaugeVec
		hv *HistogramVec
		r  *Registry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Dec()
	h.Observe(1)
	cv.With("x").Inc()
	gv.With("x").Set(2)
	hv.With("x").Observe(1)
	r.OnCollect(func() {})
	r.Counter("x_total", "x").Inc()
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil metrics reported non-zero values")
	}
}

// TestConcurrentHammer drives every metric type from many goroutines while
// scraping concurrently; run under -race this is the registry's data-race
// proof, and the final counts prove no increment was lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hammer_total", "h")
	g := r.Gauge("test_hammer_gauge", "h")
	cv := r.CounterVec("test_hammer_vec_total", "h", "worker")
	h := r.Histogram("test_hammer_seconds", "h", []float64{0.25, 0.5, 0.75})

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4) // contend on shared children too
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				cv.With(label).Inc()
				h.Observe(float64(i%perWorker) / perWorker)
			}
		}(w)
	}
	// Concurrent scrapes while the writers run.
	var scrapeWG sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WriteText(&buf); err != nil {
					t.Errorf("concurrent WriteText: %v", err)
					return
				}
				// Snapshot consistency: the histogram's +Inf bucket must equal
				// its _count even mid-hammer.
				samples, _ := parseExposition(t, buf.String())
				var inf, count float64
				for _, s := range samples {
					if s.name == "test_hammer_seconds_bucket" && s.labels["le"] == "+Inf" {
						inf = s.value
					}
					if s.name == "test_hammer_seconds_count" {
						count = s.value
					}
				}
				if inf != count {
					t.Errorf("mid-scrape +Inf bucket %v != _count %v", inf, count)
					return
				}
			}
		}()
	}
	wg.Wait()
	scrapeWG.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d; want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %d; want %d", g.Value(), total)
	}
	var vecSum int64
	for w := 0; w < 4; w++ {
		vecSum += cv.With(fmt.Sprintf("w%d", w)).Value()
	}
	if vecSum != total {
		t.Errorf("vec sum = %d; want %d", vecSum, total)
	}
	if snap := h.Snapshot(); snap.Count != total {
		t.Errorf("histogram count = %d; want %d", snap.Count, total)
	}
}
