// Command graphlet-api serves a graph through the restricted-access crawl
// API (see internal/apiserver), so estimation can be demonstrated across a
// real network boundary:
//
//	graphlet-api -dataset facebook -addr :8080
//	graphlet-api -graph g.txt -addr :8080 -qps 50   # politeness-limited API
//
// A second process crawls it with graphlet-estimate -graph http://host:port.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/apiserver"
	"repro/internal/datasets"
	"repro/internal/graph"
)

func main() {
	var (
		path    = flag.String("graph", "", "graph file, edge list or .gcsr")
		dataset = flag.String("dataset", "", "stand-in dataset name")
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		seed    = flag.Int64("seed", 1, "seed of the /v1/nodes/random draws")
		qps     = flag.Float64("qps", 0, "politeness rate limit in requests/sec (0 = unlimited)")
		burst   = flag.Int("burst", 1, "rate-limit burst allowance")
	)
	flag.Parse()

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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphlet-api:", err)
	os.Exit(1)
}
