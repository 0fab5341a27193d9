package experiments

import (
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The experiment drivers are exercised end-to-end at the Quick budget; these
// tests pin the structural properties of each report (methods present,
// datasets present, verifications passing) without fixing noisy numbers.

func TestTable2Report(t *testing.T) {
	var sb strings.Builder
	Table2(&sb)
	out := sb.String()
	for _, want := range []string{"SRW(1)", "SRW(2)", "SRW(3)", "g3_1", "g4_6", "match the published"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestTable3Report(t *testing.T) {
	var sb strings.Builder
	Table3(&sb)
	out := sb.String()
	if !strings.Contains(out, "g5_21") || !strings.Contains(out, "5-clique") {
		t.Error("table3 missing 5-clique row")
	}
	if n := strings.Count(out, "suspected erratum"); n != 5 {
		t.Errorf("table3 flags %d errata, want 5", n)
	}
}

func TestTable4AllVerified(t *testing.T) {
	var sb strings.Builder
	Table4(&sb)
	out := sb.String()
	if strings.Contains(out, "FAILED") || strings.Contains(out, "false") {
		t.Errorf("table4 verification failed:\n%s", out)
	}
	if strings.Count(out, "true") < 8 {
		t.Errorf("table4 verified fewer rows than expected:\n%s", out)
	}
}

func TestFig5Report(t *testing.T) {
	var sb strings.Builder
	Fig5(&sb, quick)
	out := sb.String()
	for _, want := range []string{"weighted concentration", "NRMSE", "SRW2CSS", "4-clique"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

// The report code runs unchanged, Exact column included, but over a small
// generated graph per dataset row: ESU at k=5 on the stand-ins themselves is
// minutes of tier-1 time (cmd/experiments and BenchmarkTable6Timing run the
// full table).
func TestTable6Report(t *testing.T) {
	var sb strings.Builder
	table6(&sb, Params{Steps: 300, Trials: 2}, func(d datasets.Dataset) *graph.Graph {
		return gen.HolmeKim(400, 3, 0.6, int64(len(d.Name)))
	})
	out := sb.String()
	for _, want := range []string{"SRW2", "SRW2CSS", "SRW3", "SRW4", "Exact", "brightkite", "facebook"} {
		if !strings.Contains(out, want) {
			t.Errorf("table6 output missing %q", want)
		}
	}
}

func TestTable7Report(t *testing.T) {
	var sb strings.Builder
	Table7(&sb, quick)
	out := sb.String()
	for _, want := range []string{"facebook", "twitter", "SRW2CSS", "PSRW", "Exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("table7 output missing %q", want)
		}
	}
}

// quick is small enough for the report tests.
var quick = Params{Steps: 2000, Trials: 8}

func TestParamsDefaults(t *testing.T) {
	def := Params{}.withDefaults()
	if def.Steps != 20000 || def.Trials != 200 {
		t.Fatalf("defaults = %+v", def)
	}
}

func TestFmtF(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.12345: "0.1235",
		12345:   "1.234e+04",
		1e-9:    "1.000e-09",
	}
	for x, want := range cases {
		if got := fmtF(x); got != want {
			t.Errorf("fmtF(%v) = %q, want %q", x, got, want)
		}
	}
}
