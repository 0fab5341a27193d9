package loadgen

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest of p99/p95/p90 with at least ten samples beyond
// it; below 100 samples none has, and the median stands in.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{
		{12, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {8000, 99},
	} {
		v, pct := Tail(seq(tc.n))
		if pct != tc.pct {
			t.Errorf("n=%d: chose p%d, want p%d", tc.n, pct, tc.pct)
		}
		if beyond := tc.n - int(v); pct != 50 && beyond < TailMinBeyond {
			t.Errorf("n=%d: p%d = %v leaves only %d samples beyond it", tc.n, pct, v, beyond)
		}
	}
}

func at(msec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(msec) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	parent := Span{Name: "job", Start: at(0), End: at(100)}
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []Span{{Start: at(10), End: at(20)}, {Start: at(50), End: at(70)}}, 70 * time.Millisecond},
		{"overlapping count once", []Span{{Start: at(10), End: at(60)}, {Start: at(40), End: at(80)}}, 30 * time.Millisecond},
		{"nested", []Span{{Start: at(0), End: at(100)}, {Start: at(20), End: at(30)}}, 0},
		{"clipped to the parent", []Span{{Start: at(-50), End: at(10)}, {Start: at(90), End: at(500)}}, 80 * time.Millisecond},
		{"inverted child ignored", []Span{{Start: at(60), End: at(40)}}, 100 * time.Millisecond},
		{"unsorted input", []Span{{Start: at(80), End: at(100)}, {Start: at(0), End: at(80)}}, 0},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A job that ran is fully covered by submit → queue wait → run → notify: the
// daemon stamps created_at inside the POST, so the tree leaves no gap.
func TestJobSpansCoverTheJob(t *testing.T) {
	o := &Outcome{
		RequestID: "r-1", Due: at(0), SubmitStart: at(3), SubmitEnd: at(5), Terminal: at(60),
		View: service.JobView{CreatedAt: at(4), StartedAt: at(20), FinishedAt: at(58)},
	}
	root, kids := JobSpans(o)
	if len(kids) != 5 || kids[0].Name != "client.wait_due" {
		t.Fatalf("open-loop job: got %d children, first %q", len(kids), kids[0].Name)
	}
	if self := SelfTime(root, kids); self != 0 {
		t.Errorf("self time %v, want 0", self)
	}
	for _, k := range kids {
		if k.Parent != "job" || k.RequestID != "r-1" {
			t.Errorf("child %q: parent %q, request id %q", k.Name, k.Parent, k.RequestID)
		}
	}
	o.View.Cached = true
	if _, kids := JobSpans(o); len(kids) != 2 {
		t.Errorf("cached job: %d children, want wait_due and submit only", len(kids))
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Job lists and arrival times are pure functions of the seed.
func TestListsFollowTheSeed(t *testing.T) {
	build := func(seed int64) (m6, short, sched string) {
		rng := rand.New(rand.NewSource(seed))
		m6 = marshal(t, M6Jobs(rng, "g", 48, [6]int{400, 200, 100, 100, 100, 100}, 2))
		short = marshal(t, ShortJobs(rng, "g", 500, 500, 400))
		sched = marshal(t, PoissonSchedule(rng, 500, 400))
		return
	}
	a1, b1, c1 := build(7)
	a2, b2, c2 := build(7)
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Error("equal seeds produced different lists")
	}
	a3, b3, c3 := build(8)
	if a1 == a3 || b1 == b3 || c1 == c3 {
		t.Error("different seeds produced an identical list")
	}
}

func TestM6JobsRoundRobinWithUniqueSeeds(t *testing.T) {
	steps := [6]int{400, 200, 100, 100, 100, 100}
	jobs := M6Jobs(rand.New(rand.NewSource(1)), "g", 30, steps, 2)
	seeds := make(map[int64]bool)
	for i, j := range jobs {
		want := M6[i%6]
		s := j.Spec
		if s.K != want.K || s.D != want.D || s.CSS != want.CSS || s.NB != want.NB || len(s.Sizes) != len(want.Sizes) {
			t.Errorf("job %d: spec %+v is not M6 slot %d", i, s, i%6)
		}
		if s.Steps != steps[i%6] || s.Walkers != 2 || s.Graph != "g" {
			t.Errorf("job %d: steps %d walkers %d graph %q", i, s.Steps, s.Walkers, s.Graph)
		}
		if seeds[s.Seed] {
			t.Errorf("job %d: seed %d repeats", i, s.Seed)
		}
		seeds[s.Seed] = true
	}
}

func TestShortJobsShareHotSeeds(t *testing.T) {
	jobs := ShortJobs(rand.New(rand.NewSource(1)), "g", 4000, 500, 400)
	count := make(map[int64]int)
	for i, j := range jobs {
		count[j.Spec.Seed]++
		if j.Spec.Walkers != 1 || j.Spec.Steps != 500 {
			t.Fatalf("job %d: %+v", i, j.Spec)
		}
		if i > 0 && j.Due < jobs[i-1].Due {
			t.Fatalf("job %d is due before job %d", i, i-1)
		}
	}
	hot, hotJobs := 0, 0
	for _, n := range count {
		if n > 1 {
			hot++
			hotJobs += n
		}
	}
	if hot != ShortHotSeeds {
		t.Errorf("%d seeds repeat, want the %d hot ones", hot, ShortHotSeeds)
	}
	if share := float64(hotJobs) / float64(len(jobs)); share < 0.45 || share > 0.55 {
		t.Errorf("hot share %.3f, want about a half", share)
	}
	// 4000 arrivals at 400/s end near the 10 s mark.
	if end := jobs[len(jobs)-1].Due.Seconds(); end < 9 || end > 11 {
		t.Errorf("last arrival at %.2f s, want about 10", end)
	}
}

const exposition = `# HELP graphletd_jobs_total Job lifecycle transitions.
# TYPE graphletd_jobs_total counter
graphletd_jobs_total{state="done"} 7
graphletd_jobs_total{state="submitted"} 9
graphletd_runs_total 5
graphletd_queue_wait_seconds_bucket{class="batch",le="0.005"} 3
graphletd_peer_healthy{peer="http://127.0.0.1:1 x"} 1
graphletd_journal_append_seconds_sum 0.00125

graphletd_blockcache_hits 1.5e+06 1700000000000
`

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := ParseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`graphletd_jobs_total{state="done"}`:                            7,
		`graphletd_runs_total`:                                          5,
		`graphletd_queue_wait_seconds_bucket{class="batch",le="0.005"}`: 3,
		`graphletd_peer_healthy{peer="http://127.0.0.1:1 x"}`:           1, // a space inside a label value
		`graphletd_journal_append_seconds_sum`:                          0.00125,
		`graphletd_blockcache_hits`:                                     1.5e6, // trailing timestamp ignored
	} {
		if got, ok := before[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	after := Samples{`graphletd_jobs_total{state="done"}`: 10, `graphletd_runs_total`: 5, `graphletd_new_total`: 2}
	d := Delta(before, after)
	if d[`graphletd_jobs_total{state="done"}`] != 3 || d[`graphletd_runs_total`] != 0 || d[`graphletd_new_total`] != 2 {
		t.Errorf("delta = %v", d)
	}
	for _, bad := range []string{"no_value_here", "name{a=\"b\"}", "name notanumber"} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

// scanEvents stops at the first terminal view, whether it arrives as the
// terminal event or as the opening snapshot of a job that already finished.
func TestScanEventsFindsTheTerminalView(t *testing.T) {
	stream := "event: snapshot\ndata: {\"id\":\"j-1\",\"state\":\"running\"}\n\n" +
		"event: checkpoint\ndata: {\"id\":\"j-1\",\"state\":\"running\",\"progress\":{\"steps\":500,\"total\":1000}}\n\n" +
		"event: done\ndata: {\"id\":\"j-1\",\"state\":\"done\",\"progress\":{\"steps\":1000,\"total\":1000}}\n\n" +
		"event: ignored\ndata: {\"id\":\"j-1\",\"state\":\"failed\"}\n\n"
	var seen []service.State
	err := scanEvents(strings.NewReader(stream), func(v service.JobView, _ time.Time) bool {
		seen = append(seen, v.State)
		return !Terminal(v.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[2] != service.StateDone {
		t.Errorf("saw %v, want running, running, done", seen)
	}
	if err := scanEvents(strings.NewReader("data: {not json}\n"), func(service.JobView, time.Time) bool { return true }); err == nil {
		t.Error("malformed data line accepted")
	}
}

func TestSummarizeCountsFailuresAndSharedRuns(t *testing.T) {
	ran := func(id string, coalesced int) service.JobView {
		return service.JobView{ID: id, State: service.StateDone, Coalesced: coalesced,
			Progress: service.Progress{Steps: 1000}, CreatedAt: at(1), StartedAt: at(3), FinishedAt: at(9)}
	}
	outcomes := []Outcome{
		{Due: at(0), SubmitStart: at(0), SubmitEnd: at(2), Terminal: at(10), View: ran("j-1", 2)},
		{Due: at(0), SubmitStart: at(1), SubmitEnd: at(2), Terminal: at(11), View: ran("j-1", 2)}, // coalesced onto j-1
		{Due: at(5), SubmitStart: at(5), SubmitEnd: at(6), Terminal: at(6), View: service.JobView{ID: "j-2", State: service.StateDone, Cached: true, Coalesced: 1, Progress: service.Progress{Steps: 1000}}},
		{Due: at(6), SubmitStart: at(6), SubmitEnd: at(7), Terminal: at(7), Err: errRefused},
	}
	s := Summarize(outcomes)
	if s.Sent != 4 || s.Succeeded != 3 || s.Failed != 1 || s.Cached != 1 || s.Coalesced != 2 {
		t.Errorf("tally %+v", s)
	}
	if s.Steps != 1000 {
		t.Errorf("steps %d: a shared run counts once and a cache hit walked nothing", s.Steps)
	}
	if len(s.LatencyMs) != 3 || len(s.RunMs) != 2 || s.RunMs[0] != 6 || s.QueueWaitMs[0] != 2 || s.NotifyMs[0] != 1 {
		t.Errorf("samples: latency %v run %v wait %v notify %v", s.LatencyMs, s.RunMs, s.QueueWaitMs, s.NotifyMs)
	}
	if s.Wall != 11*time.Millisecond {
		t.Errorf("wall %v, want 11ms", s.Wall)
	}
}

var errRefused = errors.New("refused")
