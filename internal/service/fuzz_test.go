package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/access"
	"repro/internal/graph"
	"repro/internal/service/journal"
)

// refusingClient fails every walk at its first degree lookup: the panic hits
// the engine's per-walker guard and fails the job, so a fuzzed spec never
// walks out its budget.
type refusingClient struct{ access.Client }

func (refusingClient) Degree(int32) int { panic("service fuzz: walks are not run") }

func refusingClients(g *graph.Graph) access.Client {
	return refusingClient{access.NewGraphClient(g)}
}

// allocSlack is the allocation a fuzzed request or replay may make beyond
// allocPerByte per input byte: the manager's and the journal's fixed buffers.
const (
	allocPerByte = 64
	allocSlack   = 8 << 20
)

// totalAlloc returns the bytes allocated so far by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzSubmitSpec posts arbitrary bodies to POST /v1/jobs. The handler never
// panics and never answers 5xx: a body is a spec it admits (202, or 200 when
// the cache answers it) or one it refuses (400), and what it allocates is
// bounded by the body's length. Admitted jobs fail at their first step. The
// seed corpus is under testdata/fuzz.
func FuzzSubmitSpec(f *testing.F) {
	mgr, err := NewManager(testRegistry(f), Options{Workers: 1, MaxWalkers: 2, NewClient: refusingClients})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mgr.Close)
	srv := NewServer(mgr.reg, mgr)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := totalAlloc()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if used := totalAlloc() - before; used > uint64(allocPerByte*len(body)+allocSlack) {
			t.Errorf("a %d-byte body allocated %d bytes", len(body), used)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			var v JobView
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
				t.Errorf("status %d with body %q", rec.Code, rec.Body.Bytes())
			}
		case http.StatusBadRequest:
		default:
			t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// writeJournal writes recs as the journal of a manager with data dir dir.
func writeJournal(t *testing.T, dir string, recs []journal.Record) {
	t.Helper()
	writeJournalWith(t, dir, journal.Options{}, recs)
}

// FuzzReplayRecords replays a journal holding a submitted record and, by
// the selector, no terminal record or a done, failed or canceled one, with
// arbitrary JSON payloads. Replay never panics: either it refuses the
// journal with an error, or the job comes back in a defined state, its
// views render without a 5xx, and replay allocated in proportion to the
// records' length. A job that comes back queued or running holds a spec
// checkSpec passes. The seed corpus (testdata/fuzz) holds the records a
// daemon writes for a k and a sizes job, and malformed ones.
func FuzzReplayRecords(f *testing.F) {
	reg := testRegistry(f)
	f.Fuzz(func(t *testing.T, sub []byte, kind uint8, term []byte) {
		dir := t.TempDir()
		recs := []journal.Record{{Type: journal.TypeSubmitted, Job: "j-1", Payload: sub}}
		if tt := []journal.Type{0, journal.TypeDone, journal.TypeFailed, journal.TypeCanceled}[kind%4]; tt != 0 {
			recs = append(recs, journal.Record{Type: tt, Job: "j-1", Payload: term})
		}
		writeJournal(t, dir, recs)

		before := totalAlloc()
		mgr, err := NewManager(reg, Options{Workers: 1, MaxWalkers: 2, DataDir: dir, NewClient: refusingClients})
		if used := totalAlloc() - before; used > uint64(allocPerByte*(len(sub)+len(term))+allocSlack) {
			t.Errorf("replaying %d payload bytes allocated %d bytes", len(sub)+len(term), used)
		}
		if err != nil {
			if err.Error() == "" {
				t.Error("replay refused the journal without a message")
			}
			return
		}
		defer mgr.Close()
		v, ok := mgr.Get("j-1")
		if !ok {
			t.Fatal("replay accepted the journal but the job did not come back")
		}
		switch v.State {
		case StateQueued, StateRunning:
			if err := checkSpec(v.Spec); err != nil {
				t.Errorf("replay re-queued a spec admission refuses: %v", err)
			}
		case StateDone, StateCanceled:
		case StateFailed:
			if kind%4 != 2 && v.Error == "" {
				t.Error("job failed without a message")
			}
		default:
			t.Errorf("job came back %q", v.State)
		}
		srv := NewServer(reg, mgr)
		for _, path := range []string{"/v1/jobs/j-1", "/v1/jobs", "/v1/stats"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}

// TestReplayFailsInvalidSpec: a journaled job left queued or running whose
// spec admission would refuse on its own terms — the engine's config
// checks, a positive step budget, the nodes range — fails at replay with
// that refusal's error. It is not re-queued, so it never takes a worker.
func TestReplayFailsInvalidSpec(t *testing.T) {
	reg := testRegistry(t)
	info, _ := reg.Info("hk")
	for _, tc := range []struct {
		name    string
		spec    string
		started bool
	}{
		{"size-and-steps", `{"graph":"hk","k":99,"steps":-1}`, false},
		{"steps-and-walkers", `{"graph":"hk","k":3,"steps":-5,"walkers":-3}`, false},
		{"size", `{"graph":"hk","k":99,"steps":100}`, true},
		{"walkers", `{"graph":"hk","k":3,"d":1,"steps":100,"walkers":-3}`, false},
		{"nodes", `{"graph":"hk","k":3,"d":1,"steps":100,"nodes":65}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var spec Spec
			if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
				t.Fatal(err)
			}
			want := checkSpec(spec)
			if want == nil {
				t.Fatalf("spec %s passes checkSpec", tc.spec)
			}
			sub, err := json.Marshal(recSubmitted{Spec: spec, GraphMeta: &info})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			recs := []journal.Record{{Type: journal.TypeSubmitted, Job: "j-1", Payload: sub}}
			if tc.started {
				recs = append(recs, journal.Record{Type: journal.TypeStarted, Job: "j-1"})
			}
			writeJournal(t, dir, recs)
			mgr := newTestManager(t, reg, Options{Workers: 1, MaxWalkers: 2, DataDir: dir, NewClient: refusingClients})
			defer mgr.Close()
			v, ok := mgr.Get("j-1")
			if !ok || v.State != StateFailed || v.Error != want.Error() {
				t.Fatalf("replayed job %+v (ok=%v), want failed with %q", v, ok, want)
			}
			if st := mgr.Stats(); st.RecoveredJobs != 0 {
				t.Errorf("%d jobs re-queued, want 0", st.RecoveredJobs)
			}
		})
	}
}
