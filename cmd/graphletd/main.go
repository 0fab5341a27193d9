// Command graphletd is the multi-graph estimation daemon: it registers named
// graphs (stand-in datasets and/or edge-list files), then serves asynchronous
// graphlet-concentration estimation jobs over HTTP with live progress (poll
// or server-sent events), priority-class scheduling (interactive > batch >
// background under weighted deficit accounting), an LRU result cache,
// single-flight coalescing of identical requests, and a worker pool bounded
// so job parallelism × walkers stays at GOMAXPROCS.
//
//	graphletd -datasets brightkite,epinion -addr 127.0.0.1:9090
//	graphletd -graph social=edges.txt -workers 2 -max-walkers 4
//	graphletd -graph social=social.gcsr   # packed binary CSR, opened via mmap
//	graphletd -graph social=edges.txt -data-dir /var/lib/graphletd
//
// With -data-dir the daemon is durable: every job transition is appended to
// a CRC-checksummed journal under <data-dir>/journal (asynchronously, on an
// ordered writer goroutine, so -fsync on a slow disk never stalls the API),
// and a restart replays it — completed results are served from the warmed
// cache without re-running, and jobs that were queued or running at the
// crash re-queue and finish. A checkpoint record is the engine's binary
// ensemble state and nothing else — the full snapshot at every 16th
// checkpoint, a delta against the job's previous record between — so an
// interrupted job resumes from its last checkpoint instead of step 0 — the
// scheduler charges only the remaining budget, and the job's resumed_steps
// (status, SSE, /v1/stats) reports how much crawl work the resume preserved
// — and replay re-derives the job's progress (steps and concentrations) from
// it. This daemon still reads the JSON checkpoint records of older journals;
// an older daemon refuses a journal holding raw snapshot records at replay,
// and says so. Without -data-dir the job table is in-memory only (the pre-journal
// behavior).
//
// The daemon is observable end to end: GET /metrics serves a Prometheus
// text exposition (job lifecycle, queue depth and wait histograms by
// priority class, cache hit/miss/eviction, journal append/fsync/compaction,
// walk-engine step counters), GET /healthz and /readyz answer liveness and
// readiness probes — /readyz stays 503 until graph registration and journal
// replay finish — and every request gets an X-Request-Id (client-supplied or
// generated) that is echoed on the response, stamped into submitted jobs
// (visible in job views and SSE events), and logged in the structured access
// log (-access-log). -qps/-burst put the JSON API behind a shared token
// bucket; /metrics and the probes are never throttled.
//
// -graph accepts text edge lists and .gcsr binary CSR files (see
// cmd/graphlet-pack); .gcsr files open zero-copy through mmap — one
// sequential checksum/validation pass over the raw bytes instead of an
// edge-list parse and rebuild (~40x faster at 1M edges) — and resident
// pages are shared with any other process mapping the same file.
// Block-compressed .gcsr v2 files (graphlet-pack -format v2, about half the
// bytes on disk) are served through a bounded cache of pages (about 8 KiB of
// encoded rows each, whatever block size the file was packed with) sized by
// -block-cache-mb, which a page is charged for its row index and the rows
// decoded from it; its hit/miss/eviction/residency counters are
// exposed as graphletd_blockcache_* gauges on /metrics. Graphs packed with -keep-ids
// report "original_ids": true in GET /v1/graphs. Dataset graphs are
// likewise cached as .gcsr under $REPRO_CACHE_DIR after first build.
//
// Multi-size jobs: a spec with "sizes":[3,4,5] instead of "k" runs one
// shared random walk covering every listed size — the step budget (and the
// scheduler charge) is paid once, and on completion the result cache is
// fan-out-filled with one entry per size, so later single-size requests for
// any covered k answer instantly. -sizes sets the admission allowlist
// (default 3,4,5). Checkpoint snapshots, crash recovery, and mid-budget
// resume all work for multi-size jobs, with per-size results byte-identical
// to independent runs.
//
// Distributed execution: -worker makes this node accept partition work at
// POST /v1/partitions, and -peers gives a coordinator its fleet. Every job
// runs as partitions of its walker ensemble through one coordinator path: a
// job submitted with "nodes": N > 1 has its walkers split into contiguous
// partitions fanned across the peers, any other job is the one partition
// [0, W) run in this process by the same partition runner. Per-walker seeds
// and quotas are derived from global walker indices, so the merged result
// is byte-identical to a local run at any fleet size. Dead workers fail over
// (retry on a rotated peer from the last streamed snapshot, then locally;
// a frame whose state does not parse fails that attempt and is never
// resumed from), and with -data-dir the coordinator journals every
// fleet-wide checkpoint, so even a coordinator crash resumes mid-budget —
// on the fleet a restart finds, or with no peers at all — with the resumed
// steps credited exactly once. A cancelled job, local or distributed,
// reports the last ensemble-wide checkpoint it reached.
//
//	graphletd -datasets epinion -addr 127.0.0.1:9091 -worker   # worker node
//	graphletd -datasets epinion -peers http://127.0.0.1:9091,http://127.0.0.1:9092
//	curl -s -X POST localhost:9090/v1/jobs -d \
//	  '{"graph":"epinion","k":4,"d":2,"css":true,"steps":20000,"walkers":4,"seed":1,"nodes":2}'
//
// Submit and poll with curl:
//
//	curl -s -X POST localhost:9090/v1/jobs -d \
//	  '{"graph":"epinion","k":4,"d":2,"css":true,"steps":20000,"walkers":4,"seed":1,"priority":"interactive"}'
//	curl -s -X POST localhost:9090/v1/jobs -d \
//	  '{"graph":"epinion","sizes":[3,4,5],"d":2,"css":true,"steps":20000,"walkers":4,"seed":1}'
//	curl -s localhost:9090/v1/jobs/j-1
//	curl -sN localhost:9090/v1/jobs/j-1/events     # SSE progress stream
//	curl -s -X DELETE localhost:9090/v1/jobs/j-1   # cancel
//	curl -s -X DELETE localhost:9090/v1/graphs/epinion   # unregister + purge cache
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (http.DefaultServeMux only)
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apiserver"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var graphFlags multiFlag
	var (
		addr       = flag.String("addr", "127.0.0.1:9090", "listen address")
		dsets      = flag.String("datasets", "", "comma-separated stand-in dataset names to register")
		workers    = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS/max-walkers)")
		maxWalkers = flag.Int("max-walkers", 8, "per-job walker cap")
		cacheSize  = flag.Int("cache", 256, "result-cache capacity (negative disables)")
		snapshot   = flag.Int("snapshot-every", 0, "progress checkpoint spacing in windows (0 = auto)")
		sizesFlag  = flag.String("sizes", "3,4,5", "comma-separated sizes multi-size jobs may request (empty disables them)")
		dataDir    = flag.String("data-dir", "", "durability directory: journal job history here, replay it on start (empty = volatile)")
		fsync      = flag.Bool("fsync", false, "fsync every journal append (with -data-dir)")
		pprofAddr  = flag.String("pprof", "", "expose net/http/pprof on this side listener (e.g. 127.0.0.1:6060; empty = off)")
		qps        = flag.Float64("qps", 0, "rate-limit API requests to this sustained QPS (0 = unlimited; /metrics, health probes and partition streams are never throttled)")
		burst      = flag.Int("burst", 16, "rate-limit burst allowance (with -qps)")
		accessLog  = flag.Bool("access-log", true, "log one structured line per request to stderr")
		peersFlag  = flag.String("peers", "", "comma-separated worker base URLs for distributed jobs (e.g. http://10.0.0.2:9090)")
		worker     = flag.Bool("worker", false, "accept partition work from coordinators at POST /v1/partitions")
		blockCache = flag.Int64("block-cache-mb", 64, "per-graph budget, in MiB, for the cached pages of .gcsr v2 files: each page's row index and the rows decoded from it")
	)
	flag.Var(&graphFlags, "graph", "name=path graph to register, edge list or .gcsr (repeatable)")
	flag.Parse()

	// Bind the listener and start serving before graph registration and
	// journal replay: probes get real answers the whole time (/healthz 200,
	// /readyz 503 "starting", anything else 503) instead of connection
	// refusals, so an orchestrator can tell "still replaying the journal"
	// from "dead".
	metrics := obs.NewRegistry()
	health := obs.NewHealth("starting: graph registration and journal replay in progress")
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	swap := &handlerSwitch{}
	swap.Store(bootstrapHandler(health))
	srv := &http.Server{
		Handler: obs.Trace(swap, obs.TraceOptions{
			Logger:  logger,
			Metrics: obs.NewHTTPMetrics(metrics, "graphletd"),
			PathLabel: func(r *http.Request) string {
				return service.RoutePattern(r.URL.Path)
			},
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	reg := service.NewRegistry()
	if *dsets != "" {
		for _, name := range strings.Split(*dsets, ",") {
			if err := reg.AddDataset(strings.TrimSpace(name)); err != nil {
				fail(err)
			}
		}
	}
	for _, spec := range graphFlags {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad -graph %q, want name=path", spec))
		}
		if err := reg.AddFileOpts(name, path, graph.OpenOptions{BlockCacheBytes: *blockCache << 20}); err != nil {
			fail(err)
		}
	}
	if len(reg.List()) == 0 {
		fmt.Fprintln(os.Stderr, "graphletd: no graphs registered; pass -datasets and/or -graph")
		flag.Usage()
		os.Exit(2)
	}

	multiSizes := []int{} // non-nil: an empty -sizes disables multi-size jobs
	if *sizesFlag != "" {
		for _, f := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(fmt.Errorf("bad -sizes entry %q: %v", f, err))
			}
			multiSizes = append(multiSizes, n)
		}
	}
	var peers []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, strings.TrimSuffix(p, "/"))
			}
		}
	}
	mgr, err := service.NewManager(reg, service.Options{
		Workers:       *workers,
		MaxWalkers:    *maxWalkers,
		CacheSize:     *cacheSize,
		SnapshotEvery: *snapshot,
		MultiSizes:    multiSizes,
		DataDir:       *dataDir,
		Fsync:         *fsync,
		Metrics:       metrics,
		Peers:         peers,
	})
	if err != nil {
		fail(err)
	}
	defer mgr.Close()

	if *pprofAddr != "" {
		// Side listener only: the pprof handlers register on
		// http.DefaultServeMux (imported for effect below), which the API
		// server never serves, so profiling endpoints are reachable solely on
		// this address.
		go func() {
			fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "graphletd: pprof listener: %v\n", err)
			}
		}()
	}

	// Assemble the real handler: the API server (which also serves /metrics,
	// /healthz, /readyz), with the JSON API behind the optional token-bucket
	// limiter. Operational endpoints bypass the bucket — a saturated API must
	// not block the scrape or the probes that would diagnose it.
	api := service.NewServer(reg, mgr)
	api.Health = health
	if *worker {
		// Partition work resolves graphs through the same registry and access
		// stack local jobs use, so a distributed run costs each walker exactly
		// what a local run would.
		api.Partitions = &dist.Handler{
			Lookup: mgr.PartitionLookup(),
			Served: metrics.CounterVec("graphletd_partitions_served_total",
				"Partition requests served by this worker, by outcome.", "state"),
		}
	}
	var handler http.Handler = api
	if *qps > 0 {
		rejected := metrics.Counter("graphletd_ratelimit_rejected_total",
			"Requests that gave up waiting for a rate-limit token.")
		limited := apiserver.RateLimit(api, *qps, *burst, rejected.Inc)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch strings.TrimSuffix(r.URL.Path, "/") {
			// Partition streams are fleet-internal and hour-long-lived; the
			// public-API token bucket must not starve the fleet.
			case "/metrics", "/healthz", "/readyz", "/v1/partitions":
				api.ServeHTTP(w, r)
			default:
				limited.ServeHTTP(w, r)
			}
		})
	}
	swap.Store(handler)
	health.SetReady()

	st := mgr.Stats()
	fmt.Printf("graphletd: %d graph(s), %d worker(s), walker cap %d, cache %d results\n",
		st.GraphsCount, st.Workers, st.MaxWalkers, *cacheSize)
	if *dataDir != "" {
		fmt.Printf("  journal %s: %d segment(s), %d job(s) re-queued (%d resumable mid-budget), %d result(s) warmed\n",
			*dataDir, st.JournalSegments, st.RecoveredJobs, st.ResumableJobs, st.WarmedResults)
	}
	for _, info := range reg.List() {
		fmt.Printf("  graph %-12s %8d nodes %9d edges (max degree %d, %s)\n",
			info.Name, info.Nodes, info.Edges, info.MaxDegree, info.Source)
	}
	if *qps > 0 {
		fmt.Printf("  rate limit %.1f qps (burst %d); /metrics, probes and partition streams unthrottled\n", *qps, *burst)
	}
	if *worker {
		fmt.Println("  worker mode: accepting partition work at POST /v1/partitions")
	}
	if len(peers) > 0 {
		fmt.Printf("  fleet: %d peer(s) for distributed jobs (%s)\n", len(peers), strings.Join(peers, ", "))
	}
	fmt.Printf("listening on http://%s (metrics on /metrics, probes on /healthz /readyz)\n", *addr)

	if err := <-errCh; err != nil {
		fail(err)
	}
}

// handlerSwitch is an atomically swappable http.Handler: the daemon serves a
// bootstrap handler (probes only) while it registers graphs and replays the
// journal, then swaps in the real API without restarting the listener.
type handlerSwitch struct {
	h atomic.Value // http.Handler
}

func (s *handlerSwitch) Store(h http.Handler) { s.h.Store(&h) }

func (s *handlerSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// bootstrapHandler answers probes during startup: liveness 200, readiness
// 503 with the startup reason, everything else 503 Retry-After.
func bootstrapHandler(health *obs.Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimSuffix(r.URL.Path, "/") {
		case "/healthz":
			health.ServeLive(w, r)
		case "/readyz":
			health.ServeReady(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "graphletd is starting", http.StatusServiceUnavailable)
		}
	})
}

// multiFlag collects repeated -graph flags.
type multiFlag []string

func (f *multiFlag) String() string { return strings.Join(*f, ",") }
func (f *multiFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphletd:", err)
	os.Exit(1)
}
