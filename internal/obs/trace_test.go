package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func TestTraceAssignsAndEchoesRequestID(t *testing.T) {
	var seen string
	h := Trace(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}), TraceOptions{})

	// No client ID: one is generated, echoed, and visible downstream.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	got := rec.Header().Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated request ID %q is not 16 hex chars", got)
	}
	if seen != got {
		t.Errorf("context ID %q != echoed header %q", seen, got)
	}

	// A valid client ID is preserved end to end.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set(RequestIDHeader, "client-id.42:a")
	h.ServeHTTP(rec, req)
	if seen != "client-id.42:a" || rec.Header().Get(RequestIDHeader) != "client-id.42:a" {
		t.Errorf("client ID not propagated: ctx=%q header=%q", seen, rec.Header().Get(RequestIDHeader))
	}

	// A hostile client ID (header injection) is replaced.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set(RequestIDHeader, "bad id\x01"+strings.Repeat("x", 100))
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got == req.Header.Get(RequestIDHeader) || got == "" {
		t.Errorf("invalid client ID was echoed verbatim: %q", got)
	}
}

func TestTraceMetricsAndAccessLog(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := Trace(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "ok")
	}), TraceOptions{
		Logger:  logger,
		Metrics: NewHTTPMetrics(reg, "testd"),
		PathLabel: func(r *http.Request) string {
			if strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				return "/v1/jobs/{id}"
			}
			return r.URL.Path
		},
	})

	for _, path := range []string{"/v1/jobs/j-1", "/v1/jobs/j-2", "/missing"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`testd_http_requests_total{method="GET",path="/v1/jobs/{id}",code="200"} 2`,
		`testd_http_requests_total{method="GET",path="/missing",code="404"} 1`,
		`testd_http_request_seconds_bucket{path="/v1/jobs/{id}",le="+Inf"} 2`,
		`testd_http_inflight 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "request_id=") || !strings.Contains(logs, "route=/v1/jobs/{id}") ||
		!strings.Contains(logs, "status=404") {
		t.Errorf("access log missing fields:\n%s", logs)
	}
}

// TestTracePreservesFlusher matters because the SSE endpoint type-asserts
// its ResponseWriter to http.Flusher; a wrapper that hides it would silently
// break streaming.
func TestTracePreservesFlusher(t *testing.T) {
	flushed := false
	h := Trace(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("Trace-wrapped writer lost http.Flusher")
		}
		f.Flush()
	}), TraceOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	flushed = rec.Flushed
	if !flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}

func TestHealthReadiness(t *testing.T) {
	h := NewHealth("replaying journal")

	get := func(serve func(http.ResponseWriter, *http.Request)) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		serve(rec, httptest.NewRequest("GET", "/", nil))
		return rec
	}
	if rec := get(h.ServeLive); rec.Code != http.StatusOK {
		t.Errorf("liveness = %d before ready; want 200", rec.Code)
	}
	if rec := get(h.ServeReady); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "replaying journal") {
		t.Errorf("readiness before ready = %d %q; want 503 with reason", rec.Code, rec.Body.String())
	}
	h.SetReady()
	if rec := get(h.ServeReady); rec.Code != http.StatusOK {
		t.Errorf("readiness after SetReady = %d; want 200", rec.Code)
	}

	// Nil Health (no startup phase wired) always reports ready.
	var none *Health
	if ok, _ := none.Ready(); !ok {
		t.Error("nil Health not ready")
	}
	if rec := get(none.ServeReady); rec.Code != http.StatusOK {
		t.Errorf("nil Health readiness = %d; want 200", rec.Code)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if !validRequestID(id) {
			t.Fatalf("generated ID %q fails its own validator", id)
		}
		if seen[id] {
			t.Fatalf("duplicate generated ID %q", id)
		}
		seen[id] = true
	}
}
