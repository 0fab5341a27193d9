package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// Server is the HTTP front end of the estimation service.
//
// Endpoints (JSON):
//
//	GET    /v1/graphs             -> {"graphs":[{name,source,nodes,edges,max_degree}...]}
//	GET    /v1/graphs/{name}      -> one GraphInfo
//	DELETE /v1/graphs/{name}      -> unregister the graph and purge its cached
//	                                 results; queued jobs against it fail
//	                                 cleanly at dispatch
//	POST   /v1/jobs               -> submit a Spec (optional "priority":
//	                                 interactive|batch|background; "sizes":
//	                                 [3,4,5] instead of "k" runs one shared
//	                                 walk covering every listed size, paying
//	                                 the step budget once and fan-out-filling
//	                                 the result cache per size); 202 +
//	                                 JobView (200 when a cache hit answers it
//	                                 instantly)
//	GET    /v1/jobs               -> all jobs in submission order
//	GET    /v1/jobs/{id}          -> one JobView with live progress; a job
//	                                 resumed from a journal checkpoint after
//	                                 a crash reports progress.resumed_steps,
//	                                 the pre-crash steps it preserved
//	GET    /v1/jobs/{id}/events   -> server-sent events: a "snapshot" event,
//	                                 then "checkpoint" events at every
//	                                 progress barrier, then the terminal
//	                                 event ("done"/"failed"/"canceled");
//	                                 each data line is a JobEvent's JobView
//	DELETE /v1/jobs/{id}          -> cancel; running walkers stop within a
//	                                 few hundred transitions
//	GET    /v1/stats              -> service counters (runs, cache hits,
//	                                 queue depths by class, queue-wait
//	                                 quantiles, journal state...)
//	POST   /v1/partitions         -> distributed-execution worker endpoint
//	                                 (binary Assignment in, Frame stream
//	                                 out); 404 unless started with -worker
//
// Operational endpoints (non-JSON unless noted):
//
//	GET    /metrics               -> Prometheus text exposition of the
//	                                 manager's registry (Options.Metrics),
//	                                 the one /v1/stats is derived from
//	GET    /healthz               -> liveness: 200 as soon as the listener
//	                                 serves
//	GET    /readyz                -> readiness: 200 once graph registration
//	                                 and journal replay finished, 503 before
type Server struct {
	reg *Registry
	mgr *Manager

	// Health gates GET /readyz. Nil reports ready (tests and embedded servers
	// have no startup phase worth gating).
	Health *obs.Health
	// Partitions serves POST /v1/partitions — the distributed-execution
	// worker endpoint (a dist.Handler). Nil (the default) answers 404:
	// a graphletd only accepts partition work when started with -worker.
	Partitions http.Handler
}

// NewServer wires the registry and job manager into an HTTP handler.
func NewServer(reg *Registry, mgr *Manager) *Server {
	return &Server{reg: reg, mgr: mgr}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/metrics" && r.Method == http.MethodGet:
		s.mgr.met.reg.Handler().ServeHTTP(w, r)
	case path == "/healthz" && r.Method == http.MethodGet:
		s.Health.ServeLive(w, r)
	case path == "/readyz" && r.Method == http.MethodGet:
		s.Health.ServeReady(w, r)
	case path == "/v1/graphs" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
	case strings.HasPrefix(path, "/v1/graphs/"):
		s.graph(w, r, strings.TrimPrefix(path, "/v1/graphs/"))
	case path == "/v1/jobs" && r.Method == http.MethodPost:
		s.submit(w, r)
	case path == "/v1/jobs" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
	case strings.HasPrefix(path, "/v1/jobs/"):
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		if id, ok := strings.CutSuffix(rest, "/events"); ok && r.Method == http.MethodGet {
			s.events(w, r, id)
			return
		}
		s.job(w, r, rest)
	case path == "/v1/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.mgr.Stats())
	case path == "/v1/partitions":
		if s.Partitions == nil {
			writeError(w, http.StatusNotFound, "this node does not accept partition work (start with -worker)")
			return
		}
		s.Partitions.ServeHTTP(w, r)
	default:
		writeError(w, http.StatusNotFound, "not found")
	}
}

// graph dispatches GET (introspect) and DELETE (unregister) for one graph.
func (s *Server) graph(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodGet:
		info, ok := s.reg.Info(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
			return
		}
		writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		// Remove first so new submissions fail validation, then purge the
		// cache so a future re-bind of the name cannot serve stale results.
		if !s.reg.Remove(name) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
			return
		}
		purged := s.mgr.DropGraph(name)
		writeJSON(w, http.StatusOK, map[string]any{"removed": name, "purged_results": purged})
	default:
		methodNotAllowed(w)
	}
}

// maxSpecBytes caps POST /v1/jobs request bodies; a spec is a few hundred
// bytes.
const maxSpecBytes = 1 << 20

// submit decodes a Spec — one JSON object and nothing after it — and admits
// it.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the spec object")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return
	}
	view, err := s.mgr.SubmitCtx(r.Context(), spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	status := http.StatusAccepted
	if view.State.terminal() { // cache hit: answered without queueing
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

// job dispatches GET (poll) and DELETE (cancel) for one job ID.
func (s *Server) job(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		view, ok := s.mgr.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, view)
	case http.MethodDelete:
		view, err := s.mgr.Cancel(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, view)
	default:
		methodNotAllowed(w)
	}
}

// methodNotAllowed answers a method that one graph or one job does not
// support, naming the two that it does (RFC 9110 §15.5.6).
func methodNotAllowed(w http.ResponseWriter) {
	w.Header().Set("Allow", "GET, DELETE")
	writeError(w, http.StatusMethodNotAllowed, "method not allowed")
}

// events streams a job's lifecycle as server-sent events until the job
// reaches a terminal state or the client disconnects. Slow consumers may
// miss intermediate checkpoints (their buffers overflow and snapshots are
// dropped); the terminal event is always delivered.
func (s *Server) events(w http.ResponseWriter, r *http.Request, id string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	events, unsub, err := s.mgr.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer unsub()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	lastType := ""
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// Stream over. If the buffer overflowed past the terminal
				// event, fetch and deliver the final state explicitly.
				if !State(lastType).terminal() {
					if view, ok := s.mgr.Get(id); ok && view.State.terminal() {
						writeSSE(w, JobEvent{Type: string(view.State), Job: view})
						flusher.Flush()
					}
				}
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
			lastType = ev.Type
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one JobEvent as an SSE frame: the event line carries the
// type, the data line the JobView.
func writeSSE(w http.ResponseWriter, ev JobEvent) {
	body, err := json.Marshal(ev.Job)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// RoutePattern collapses a request path to its route template so HTTP
// metrics stay bounded-cardinality: job IDs and graph names become {id} and
// {name} instead of one label value per resource. Unknown paths share one
// "other" bucket (a scanner probing random URLs must not grow the registry).
func RoutePattern(path string) string {
	path = strings.TrimSuffix(path, "/")
	switch path {
	case "/v1/graphs", "/v1/jobs", "/v1/stats", "/v1/partitions", "/metrics", "/healthz", "/readyz":
		return path
	}
	if strings.HasPrefix(path, "/v1/graphs/") {
		return "/v1/graphs/{name}"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		if strings.HasSuffix(rest, "/events") {
			return "/v1/jobs/{id}/events"
		}
		return "/v1/jobs/{id}"
	}
	return "other"
}
