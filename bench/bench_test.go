package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/service"
)

// BENCHMARK.json is generated from the metric lists; this keeps the
// committed file in step with them and inside the contract's limits.
func TestContractFileMatchesTheMetricLists(t *testing.T) {
	want, err := json.MarshalIndent(buildContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -emit-contract > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(got))
	}
}

func TestContractLimits(t *testing.T) {
	c := buildContract()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Name != "lib_replicas" {
			if _, ok := daemonWorkloads()[w.Name]; !ok {
				t.Errorf("workload %s is listed but not implemented", w.Name)
			}
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range c.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v", m)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// Every listed metric appears on the result line; one the workload did not
// produce gets the filler, never a silent omission.
func TestContractMetricsFillMissing(t *testing.T) {
	got := contractMetrics(endToEnd, values{"setup_s": 0.4, "steps_per_s": 7}, notApplicable)
	if len(got) != len(endToEnd) {
		t.Fatalf("%d metrics on the line, want %d", len(got), len(endToEnd))
	}
	if got["setup_s"].Value != 0.4 || got["setup_s"].Unit != "s" {
		t.Errorf("setup_s = %+v", got["setup_s"])
	}
	if got["accuracy_nrmse"].Value != notApplicable || notApplicable == 0 {
		t.Errorf("missing end-to-end metric reported as %v", got["accuracy_nrmse"].Value)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// the driver uses: for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	xs := []float64{9, 1, 4, 10, 2, 7, 3, 8, 5, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := spread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of three = %v, want 1", got)
	}
	if spread([]float64{5}) != 0 || spread([]float64{4, 4, 4, 4}) != 0 {
		t.Error("degenerate samples must have zero spread")
	}
}

func TestReferenceType(t *testing.T) {
	if got := referenceType(3, []float64{0.98, 0.02}); got != 1 {
		t.Errorf("k=3 reference %d, want the triangle", got)
	}
	exact4 := []float64{0.28, 0.70, 6.7e-5, 0.0176, 2.4e-4, 5.9e-6}
	if got := referenceType(4, exact4); got != 3 {
		t.Errorf("k=4 reference %d, want the highest-index type at >= 1e-3", got)
	}
}

func TestOracleComparesBits(t *testing.T) {
	a := &service.JobResult{Steps: 10, ValidSamples: 4, Concentration: []float64{0.25, 0.75}, Weights: []float64{1, 3}}
	b := &service.JobResult{Steps: 10, ValidSamples: 4, Concentration: []float64{0.25, 0.75}, Weights: []float64{1, 3}}
	if !sameResult(a, b) {
		t.Error("equal results differ")
	}
	b.Weights[1] = math.Nextafter(3, 4)
	if sameResult(a, b) {
		t.Error("a one-ulp difference passed")
	}
	if sameResult(a, nil) || sameResult(nil, a) {
		t.Error("a missing result passed")
	}
	// Priority and nodes cannot change a result, so they do not make a spec unique.
	s1 := service.Spec{Graph: "g", K: 4, D: 2, Steps: 5, Seed: 9, Priority: service.PriorityBackground, Nodes: 2}
	s2 := service.Spec{Graph: "g", K: 4, D: 2, Steps: 5, Seed: 9}
	if specLabel(s1) != specLabel(s2) {
		t.Error("priority or nodes leaked into the oracle's spec key")
	}
	s2.Seed = 10
	if specLabel(s1) == specLabel(s2) {
		t.Error("different seeds share a spec key")
	}
}

// Job counts follow -seconds and the traced share, and never drop below one
// round of the job mix.
func TestCountScaling(t *testing.T) {
	e := &env{scale: 0.5}
	if got := e.count(96, 1); got != 48 {
		t.Errorf("count(96) at scale 0.5 = %d", got)
	}
	if got := e.count(96, tracedShare); got != 12 {
		t.Errorf("traced count(96) at scale 0.5 = %d", got)
	}
	if got := e.count(24, tracedShare); got != 6 {
		t.Errorf("traced count(24) = %d, want the floor of 6", got)
	}
}
