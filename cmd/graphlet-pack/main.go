// Command graphlet-pack converts a graph into the .gcsr binary CSR format,
// the store behind graphletd's instant daemon starts and the mmap load
// path: pack once, then every open is milliseconds instead of an edge-list
// re-parse.
//
// Usage:
//
//	graphlet-pack -in graph.txt -out graph.gcsr [-lcc=false] [-verify]
//	graphlet-pack -in graph.txt -out graph.gcsr -format v2 [-block-bytes N]
//	graphlet-pack -in graph.txt -out graph.gcsr -keep-ids
//	graphlet-pack -dataset epinion -out epinion.gcsr
//
// -format selects the output version: v1 (raw arrays, zero-copy mmap) or v2
// (block-compressed adjacency, roughly half the bytes, served through a
// bounded decode cache). By default the largest connected component is
// extracted before packing (the paper's preprocessing, and what lets the
// daemon serve the file straight from the mapping); -lcc=false packs the
// input as-is. -keep-ids preserves the source node IDs of an edge-list
// input: embedded in the file for v2, as a .gids sidecar for v1. -verify
// re-opens the written file through the mmap path and validates every
// structural invariant.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/datasets"
	"repro/internal/graph"
)

func main() {
	var (
		in         = flag.String("in", "", "input graph file (edge list or .gcsr, detected)")
		outFormat  = flag.String("format", "v1", "output .gcsr version: v1|v2")
		dataset    = flag.String("dataset", "", "pack a stand-in dataset instead of a file")
		out        = flag.String("out", "", "output .gcsr file (required)")
		lcc        = flag.Bool("lcc", true, "extract the largest connected component before packing")
		keepIDs    = flag.Bool("keep-ids", false, "preserve source node IDs (embedded in v2, .gids sidecar for v1)")
		blockBytes = flag.Int("block-bytes", 0, "v2 target encoded block size, the checksum and I/O unit (0 = default 64 KiB; readers decode ~8 KiB pages at any setting)")
		verify     = flag.Bool("verify", false, "re-open the output via mmap and validate it")
	)
	flag.Parse()
	if *out == "" || (*in == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "graphlet-pack: need -out and exactly one of -in / -dataset")
		flag.Usage()
		os.Exit(2)
	}
	if *keepIDs && *dataset != "" {
		fail(fmt.Errorf("-keep-ids applies to -in files (datasets are already densely numbered)"))
	}
	var version int
	switch *outFormat {
	case "v1", "1":
		version = 1
	case "v2", "2":
		version = 2
	default:
		fail(fmt.Errorf("unknown output format %q (want v1 or v2)", *outFormat))
	}

	start := time.Now()
	var g *graph.Graph
	if *dataset != "" {
		d, err := datasets.Get(*dataset)
		if err != nil {
			fail(err)
		}
		g = d.Graph() // already the LCC; dense IDs are the dataset's IDs
	} else {
		open := graph.Open
		if *lcc {
			open = graph.OpenLCC
		}
		var err error
		if g, err = open(*in, graph.OpenOptions{KeepIDs: *keepIDs}); err != nil {
			fail(err)
		}
	}
	// The source IDs ride on the graph: kept from an edge list, or already
	// carried by a .gcsr input, and composed through the LCC renumbering.
	var ids []int64
	if *keepIDs {
		if ids = g.OriginalIDs(); ids == nil {
			fail(fmt.Errorf("-keep-ids: input %s carries no source IDs to keep", *in))
		}
	}
	loadTime := time.Since(start)

	start = time.Now()
	opts := graph.SaveOptions{Version: version, BlockBytes: *blockBytes}
	if version == 2 {
		opts.IDs = ids
	}
	if err := graph.SaveOpts(*out, g, opts); err != nil {
		fail(err)
	}
	if version == 1 && ids != nil {
		if err := graph.SaveIDs(graph.IDsSidecarPath(*out), ids); err != nil {
			fail(err)
		}
	}
	saveTime := time.Since(start)

	st, err := os.Stat(*out)
	if err != nil {
		fail(err)
	}
	fmt.Printf("packed %d nodes, %d edges (max degree %d) -> %s (%d bytes, %s)\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree(), *out, st.Size(), *outFormat)
	if ids != nil {
		where := "embedded"
		if version == 1 {
			where = graph.IDsSidecarPath(*out)
		}
		fmt.Printf("kept %d source IDs (%s)\n", len(ids), where)
	}
	fmt.Printf("load %s, pack %s\n", loadTime.Round(time.Millisecond), saveTime.Round(time.Millisecond))

	if *verify {
		start = time.Now()
		m, err := graph.Open(*out, graph.OpenOptions{})
		if err != nil {
			fail(fmt.Errorf("verify: %w", err))
		}
		if err := graph.Validate(m); err != nil {
			fail(fmt.Errorf("verify: %w", err))
		}
		if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() || m.MaxDegree() != g.MaxDegree() {
			fail(fmt.Errorf("verify: reopened graph %v differs from packed %v", m, g))
		}
		if ids != nil {
			if !m.HasOriginalIDs() {
				fail(fmt.Errorf("verify: kept IDs did not round-trip"))
			}
			for v, id := range ids {
				if m.OriginalID(int32(v)) != id {
					fail(fmt.Errorf("verify: original ID of node %d is %d, want %d", v, m.OriginalID(int32(v)), id))
				}
			}
		}
		m.Close()
		fmt.Printf("verified via mmap in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphlet-pack:", err)
	os.Exit(1)
}
