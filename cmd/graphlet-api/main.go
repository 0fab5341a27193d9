// Command graphlet-api serves a graph through the restricted-access crawl
// API (see internal/apiserver), so estimation can be demonstrated across a
// real network boundary:
//
//	graphlet-api -dataset facebook -addr :8080
//	graphlet-api -graph g.txt -addr :8080 -qps 50   # politeness-limited API
//
// and, in a second process, crawls it with a parallel walker ensemble that
// shares one memoizing neighbor cache (no neighbor list is fetched twice):
//
//	graphlet-api -crawl http://127.0.0.1:8080 -k 4 -d 2 -css -walkers 8 -steps 20000
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	graphletrw "repro"
	"repro/internal/apiserver"
	"repro/internal/datasets"
	"repro/internal/graph"
)

func main() {
	var (
		path    = flag.String("graph", "", "graph file, edge list or .gcsr (serve mode)")
		dataset = flag.String("dataset", "", "stand-in dataset name (serve mode)")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (serve mode)")
		seed    = flag.Int64("seed", 1, "seed: /v1/nodes/random (serve) or the walk RNG (crawl)")
		qps     = flag.Float64("qps", 0, "serve: politeness rate limit in requests/sec (0 = unlimited)")
		burst   = flag.Int("burst", 1, "serve: rate-limit burst allowance")

		crawl   = flag.String("crawl", "", "crawl mode: base URL of a running graphlet-api server")
		k       = flag.Int("k", 4, "crawl: graphlet size (3..5)")
		d       = flag.Int("d", 2, "crawl: walk order d (1..k)")
		css     = flag.Bool("css", true, "crawl: corresponding state sampling")
		nb      = flag.Bool("nb", false, "crawl: non-backtracking walk")
		steps   = flag.Int("steps", 20000, "crawl: total walk steps (split across walkers)")
		walkers = flag.Int("walkers", 1, "crawl: independent concurrent walkers")
	)
	flag.Parse()

	if *crawl != "" {
		runCrawl(*crawl, graphletrw.Config{K: *k, D: *d, CSS: *css, NB: *nb, Walkers: *walkers, Seed: *seed}, *steps)
		return
	}

	var g *graph.Graph
	switch {
	case *path != "":
		var err error
		if g, err = graph.OpenLCC(*path, graph.OpenOptions{}); err != nil {
			fail(err)
		}
	case *dataset != "":
		d, err := datasets.Get(*dataset)
		if err != nil {
			fail(err)
		}
		g = d.Graph()
	default:
		flag.Usage()
		os.Exit(2)
	}

	handler := apiserver.RateLimit(apiserver.NewHandler(g, *seed), *qps, *burst, nil)
	limit := "unlimited"
	if *qps > 0 {
		limit = fmt.Sprintf("%.1f qps (burst %d)", *qps, *burst)
	}
	fmt.Printf("serving %d nodes, %d edges on http://%s, rate limit %s\n",
		g.NumNodes(), g.NumEdges(), *addr, limit)
	if err := http.ListenAndServe(*addr, handler); err != nil {
		fail(err)
	}
}

// runCrawl estimates over the HTTP boundary: the walker ensemble shares one
// memoizing client over the HTTP transport, so each neighborhood is fetched
// at most once (per-node single flight) however many walkers revisit it.
func runCrawl(base string, cfg graphletrw.Config, steps int) {
	// The crawl client reports transport failures by panicking; surface them
	// as a clean CLI error instead of a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("%v", r))
		}
	}()
	client, api := apiserver.NewClient(context.Background(), base, nil)

	start := time.Now()
	res, err := graphletrw.Estimate(client, cfg, steps)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("method %s over %s: %d steps, %d walker(s), %s\n",
		cfg.MethodName(), base, res.Steps, cfg.Walkers, elapsed.Round(time.Millisecond))
	fmt.Printf("crawl cost: %d HTTP requests for the whole ensemble (%d valid samples)\n\n",
		api.RequestCount(), res.ValidSamples)
	conc := res.Concentration()
	fmt.Printf("%-22s %12s\n", "graphlet", "estimate")
	for i, gl := range graphletrw.Catalog(cfg.K) {
		fmt.Printf("g%d_%-3d %-15s %12.6f\n", cfg.K, gl.ID, gl.Name, conc[i])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphlet-api:", err)
	os.Exit(1)
}
