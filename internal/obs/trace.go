package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing: every request entering the daemon gets a request ID at
// the front door — taken from an X-Request-Id header a proxy or client
// already assigned, or freshly generated — which is echoed on the response,
// stored in the request context for downstream layers (the job manager
// stamps it into the job record, so SSE events and /v1/jobs views carry the
// submitting request's ID), and logged in the structured access log.

// RequestIDHeader is the header carrying the request ID in both directions.
const RequestIDHeader = "X-Request-Id"

type ctxKey int

const requestIDKey ctxKey = 0

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom extracts the request ID from a context ("" if untraced).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

var ridFallback atomic.Uint64

// NewRequestID generates a 16-hex-char request ID. IDs are random, not
// sequential, so they can be correlated across restarts and daemons without
// collisions.
func NewRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Entropy exhaustion should be impossible; degrade to unique-in-process.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^ridFallback.Add(1)<<48)
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts client-provided IDs that are short and printable
// (no header-injection or log-forgery characters); anything else is
// replaced by a generated ID.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return false
		}
	}
	return true
}

// HTTPMetrics is the per-request metric set the Trace middleware records.
type HTTPMetrics struct {
	// Requests counts finished requests by method, route pattern and
	// status code.
	Requests *CounterVec
	// Latency is the request-duration histogram by route pattern.
	Latency *HistogramVec
	// InFlight gauges requests currently being served.
	InFlight *Gauge
}

// NewHTTPMetrics registers the HTTP request metrics under the given
// namespace prefix (e.g. "graphletd" -> graphletd_http_requests_total).
func NewHTTPMetrics(r *Registry, namespace string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec(namespace+"_http_requests_total",
			"Finished HTTP requests by method, route and status code.",
			"method", "path", "code"),
		Latency: r.HistogramVec(namespace+"_http_request_seconds",
			"HTTP request duration in seconds by route.",
			LatencyBuckets, "path"),
		InFlight: r.Gauge(namespace+"_http_inflight",
			"HTTP requests currently being served."),
	}
}

// TraceOptions configures the Trace middleware. All fields are optional.
type TraceOptions struct {
	// Logger receives one structured access-log line per finished request
	// (nil disables access logging; request IDs and metrics still work).
	Logger *slog.Logger
	// Metrics receives request counts and latencies (nil disables).
	Metrics *HTTPMetrics
	// PathLabel maps a request to a bounded-cardinality route label for
	// metrics and logs (nil uses the raw URL path — only safe when the
	// route space is finite).
	PathLabel func(*http.Request) string
}

// Trace wraps next with the request-tracing front door: request-ID
// assignment and echo, in-flight/request/latency metrics, and a structured
// access log. It preserves http.Flusher so SSE streaming keeps working
// through the wrapper.
func Trace(next http.Handler, opts TraceOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(WithRequestID(r.Context(), id))

		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if opts.Metrics != nil {
			opts.Metrics.InFlight.Inc()
		}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)

		path := r.URL.Path
		if opts.PathLabel != nil {
			path = opts.PathLabel(r)
		}
		if opts.Metrics != nil {
			opts.Metrics.InFlight.Dec()
			opts.Metrics.Requests.With(r.Method, path, itoa3(rec.status)).Inc()
			opts.Metrics.Latency.With(path).Observe(elapsed.Seconds())
		}
		if opts.Logger != nil {
			opts.Logger.Info("request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"route", path,
				"status", rec.status,
				"bytes", rec.bytes,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}
	})
}

// statusRecorder captures the response status and size. It implements
// http.Flusher by delegation because the SSE endpoint type-asserts its
// writer to a Flusher.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusRecorder) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// itoa3 renders a status code without allocating for the common range.
func itoa3(code int) string {
	if code >= 100 && code < 600 {
		var b [3]byte
		b[0] = byte('0' + code/100)
		b[1] = byte('0' + code/10%10)
		b[2] = byte('0' + code%10)
		return string(b[:])
	}
	return "000"
}

// Health tracks daemon liveness and readiness for load-balancer probes.
// Liveness is unconditional (the process answers); readiness flips on once
// startup — graph registration, journal replay — completes, and can flip
// back off during shutdown so a balancer drains the instance first.
type Health struct {
	mu     sync.Mutex
	ready  bool
	reason string
}

// NewHealth returns a Health that is not yet ready.
func NewHealth(reason string) *Health {
	return &Health{reason: reason}
}

// SetReady marks the daemon ready to serve.
func (h *Health) SetReady() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ready, h.reason = true, ""
	h.mu.Unlock()
}

// Ready reports the current readiness and, when unready, the reason.
func (h *Health) Ready() (bool, string) {
	if h == nil {
		// A handler with no Health wired is serving traffic already.
		return true, ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready, h.reason
}

// ServeLive answers a liveness probe: 200 whenever the process can run a
// handler at all.
func (h *Health) ServeLive(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ServeReady answers a readiness probe: 200 once startup completed, 503
// (with the reason) before that or during drain.
func (h *Health) ServeReady(w http.ResponseWriter, r *http.Request) {
	if ok, reason := h.Ready(); !ok {
		writeHealth(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "reason": reason})
		return
	}
	writeHealth(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeHealth(w http.ResponseWriter, status int, body map[string]string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
