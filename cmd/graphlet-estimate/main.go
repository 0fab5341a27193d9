// Command graphlet-estimate estimates k-node graphlet concentration of a
// graph — a file, or one reachable only through a crawl API — with the
// paper's random-walk framework.
//
// Usage:
//
//	graphlet-estimate -graph graph.txt [-k 4] [-d 2] [-css] [-nb] [-steps 20000] [-walkers 1] [-seed 1] [-exact] [-counts]
//	graphlet-estimate -graph graph.txt -sizes 3,4,5 [-d 2] [-css] [-steps 20000] [-exact] [-counts]
//	graphlet-estimate -graph http://127.0.0.1:8080 -sizes 3,4,5 -walkers 8
//
// The graph file is either a text edge list ("u v" lines, '#'/'%' comments
// allowed) or a .gcsr binary CSR file (see cmd/graphlet-pack), detected
// automatically. .gcsr inputs are opened zero-copy via mmap, so even huge
// graphs start estimating immediately. The largest connected component is
// used (a no-op for pre-packed connected graphs). With -exact, the exact
// concentration is also enumerated for comparison. With -counts, unbiased
// count estimates (Equation 4) are printed for d <= 2.
//
// An http(s):// -graph is the base URL of a running graphlet-api: the walkers
// crawl it through one shared neighbor memo, so each node costs one request
// however often it is revisited, and the run reports its cost in HTTP
// requests. -exact and -counts need the whole graph and are refused.
//
// -sizes runs one shared random walk covering every listed size at once
// (instead of -k): the step budget is paid once and a concentration table is
// printed per size, with the same -exact and -counts columns. The per-size
// estimates are byte-identical to what separate -k runs with the same seed
// would produce; -k itself is -sizes with one size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	graphletrw "repro"
	"repro/internal/apiserver"
)

func main() {
	var (
		path    = flag.String("graph", "", "graph file, edge list or .gcsr, or the http(s):// base URL of a graphlet-api to crawl (required)")
		k       = flag.Int("k", 4, "graphlet size (3..5)")
		sizes   = flag.String("sizes", "", "comma-separated graphlet sizes for one shared walk (e.g. 3,4,5; overrides -k)")
		d       = flag.Int("d", 2, "walk order d (1..k); paper recommends 1 for k=3, 2 for k=4,5")
		css     = flag.Bool("css", true, "corresponding state sampling")
		nb      = flag.Bool("nb", false, "non-backtracking walk")
		steps   = flag.Int("steps", 20000, "total random walk steps (split across walkers)")
		walkers = flag.Int("walkers", 1, "independent concurrent walkers the step budget is split across")
		seed    = flag.Int64("seed", 1, "random seed")
		exact   = flag.Bool("exact", false, "also enumerate the exact concentration")
		counts  = flag.Bool("counts", false, "also print unbiased count estimates (d <= 2)")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	// A URL is crawled: lcc stays nil and the walkers share the API's memo.
	var (
		lcc    *graphletrw.Graph
		client graphletrw.Client
		api    *apiserver.Client
	)
	if strings.HasPrefix(*path, "http://") || strings.HasPrefix(*path, "https://") {
		if *exact || *counts {
			fmt.Fprintln(os.Stderr, "graphlet-estimate: -exact and -counts need the whole graph, which a crawled API does not give")
			os.Exit(2)
		}
		client, api = apiserver.NewClient(context.Background(), strings.TrimSuffix(*path, "/"))
	} else {
		var err error
		if lcc, err = graphletrw.OpenLCC(*path); err != nil {
			fail(err)
		}
		fmt.Printf("graph: %d nodes, %d edges (largest connected component)\n", lcc.NumNodes(), lcc.NumEdges())
		client = graphletrw.NewClient(lcc)
	}

	// -k is -sizes with one size: either way one shared walk runs, and only
	// the header lines differ.
	ks := []int{*k}
	if *sizes != "" {
		ks = ks[:0]
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(fmt.Errorf("bad -sizes entry %q: %v", f, err))
			}
			ks = append(ks, n)
		}
	}
	if *counts && *d > 2 {
		fail(fmt.Errorf("count estimation needs |R(d)|, available for d <= 2"))
	}
	cfg := graphletrw.Config{Sizes: ks, D: *d, CSS: *css, NB: *nb, Walkers: *walkers, Seed: *seed}
	start := time.Now()
	res, err := graphletrw.Estimate(client, cfg, *steps)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	nw := max(*walkers, 1)
	if *sizes != "" {
		fmt.Printf("shared walk over sizes %v: %d steps, %d walker(s), %s\n", ks, res.Steps, nw, elapsed)
	}
	for _, k := range ks {
		r := res.Results[k]
		if *sizes == "" {
			fmt.Printf("method %s, %d steps, %d walker(s) (%d valid samples), %s\n\n",
				cfg.MethodName(), r.Steps, nw, r.ValidSamples, elapsed)
		} else {
			fmt.Printf("\nsize %d (%s, %d valid samples)\n", k, cfg.MethodName(), r.ValidSamples)
		}
		var exactConc, countEst []float64
		if *exact {
			exactConc = graphletrw.ExactConcentration(lcc, k)
		}
		if *counts {
			countEst = r.Counts(graphletrw.TwoR(lcc, *d))
		}
		printTable(k, r.Concentration(), exactConc, countEst)
	}
	if api != nil {
		fmt.Printf("\ncrawl cost: %d HTTP requests for the whole ensemble\n", api.RequestCount())
	}
}

// printTable prints one size's concentration table; the exact and count
// columns appear when given.
func printTable(k int, conc, exactConc, countEst []float64) {
	fmt.Printf("%-22s %12s", "graphlet", "estimate")
	if exactConc != nil {
		fmt.Printf(" %12s", "exact")
	}
	if countEst != nil {
		fmt.Printf(" %14s", "count est.")
	}
	fmt.Println()
	for i, gl := range graphletrw.Catalog(k) {
		fmt.Printf("g%d_%-3d %-15s %12.6f", k, gl.ID, gl.Name, conc[i])
		if exactConc != nil {
			fmt.Printf(" %12.6f", exactConc[i])
		}
		if countEst != nil {
			fmt.Printf(" %14.1f", countEst[i])
		}
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphlet-estimate:", err)
	os.Exit(1)
}
