package apiserver

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

// canonicalRow must pass conforming rows through untouched (same backing
// array — no copy on the hot path) and repair unsorted, duplicated or
// self-looped rows from a nonconforming server into the strict
// access.Client contract.
func TestCanonicalRow(t *testing.T) {
	sorted := []int32{1, 3, 7}
	if got := canonicalRow(0, sorted); &got[0] != &sorted[0] {
		t.Error("conforming row was copied")
	}
	for _, tc := range []struct {
		v       int32
		in, out []int32
	}{
		{0, []int32{7, 1, 3}, []int32{1, 3, 7}},
		{0, []int32{1, 1, 3, 7, 7}, []int32{1, 3, 7}},
		{0, []int32{5, 2, 5, 2}, []int32{2, 5}},
		{0, []int32{4}, []int32{4}},
		{3, []int32{1, 3, 7}, []int32{1, 7}},
		{7, []int32{7, 1, 7, 3}, []int32{1, 3}},
		{4, []int32{4}, []int32{}},
	} {
		got := canonicalRow(tc.v, slices.Clone(tc.in))
		if !reflect.DeepEqual(got, tc.out) {
			t.Errorf("canonicalRow(%d, %v) = %v, want %v", tc.v, tc.in, got, tc.out)
		}
	}
}

// FuzzCanonicalRow holds canonicalRow to the row contract at the wire for
// any row a server might send: the input is read as little-endian uint16
// node IDs (a small range, so repeats and disorder are common), the first
// being the node whose row the rest is. The output must be strictly
// ascending and equal to the row's distinct values other than the node,
// sorted; a row that is already canonical must come back as itself, not a
// copy. Seeds are committed under testdata/fuzz/FuzzCanonicalRow.
func FuzzCanonicalRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		v := int32(binary.LittleEndian.Uint16(data))
		in := make([]int32, len(data)/2-1)
		for i := range in {
			in[i] = int32(binary.LittleEndian.Uint16(data[2*i+2:]))
		}
		seen := map[int32]bool{v: true}
		var want []int32
		for _, u := range in {
			if !seen[u] {
				seen[u] = true
				want = append(want, u)
			}
		}
		slices.Sort(want)
		canonical := slices.Equal(in, want)

		got := canonicalRow(v, slices.Clone(in))
		for i, u := range got {
			if u == v {
				t.Fatalf("canonicalRow(%d, %v) = %v: keeps the row's own node", v, in, got)
			}
			if i > 0 && u <= got[i-1] {
				t.Fatalf("canonicalRow(%d, %v) = %v: not strictly ascending at %d", v, in, got, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("canonicalRow(%d, %v) = %v, want %v", v, in, got, want)
		}
		if canonical && len(in) > 0 {
			if got := canonicalRow(v, in); &got[0] != &in[0] || len(got) != len(in) {
				t.Fatalf("canonical row %v was copied or cut", in)
			}
		}
	})
}

func newTestServer(t *testing.T) (*httptest.Server, *Handler) {
	t.Helper()
	g := gen.HolmeKim(300, 3, 0.6, 7)
	h := NewHandler(g, 1)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

func TestNeighborsEndpoint(t *testing.T) {
	srv, h := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/nodes/0/neighbors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var body neighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID != 0 || body.Degree != len(body.Neighbors) {
		t.Errorf("bad body %+v", body)
	}
	if body.Degree != h.g.Degree(0) {
		t.Errorf("degree %d, want %d", body.Degree, h.g.Degree(0))
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	for path, want := range map[string]int{
		"/v1/nodes/99999/neighbors": http.StatusNotFound,
		"/v1/nodes/xx/neighbors":    http.StatusNotFound,
		"/v1/edge?u=0&v=1":          http.StatusNotFound, // no edge endpoint: probes are answered from crawled rows
		"/nope":                     http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestClientImplementsAccess(t *testing.T) {
	srv, h := newTestServer(t)
	c, _ := NewClient(context.Background(), srv.URL)
	if c.Degree(0) != h.g.Degree(0) {
		t.Errorf("Degree mismatch")
	}
	ns := c.Neighbors(5)
	want := h.g.Neighbors(5)
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(5) = %v, want %v", ns, want)
	}
	for i := range ns {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", ns, want)
		}
	}
	if c.Neighbors(5)[0] != want[0] {
		t.Error("Neighbors(5)[0] mismatch")
	}
	if c.HasEdge(5, want[0]) != true {
		t.Error("HasEdge false for existing edge")
	}
	v := c.RandomNode(nil)
	if v < 0 || int(v) >= h.g.NumNodes() {
		t.Errorf("RandomNode = %d", v)
	}
}

// TestClientCaching: the client NewClient hands out is the memo, not the
// bare transport — revisiting a node must not issue another request.
func TestClientCaching(t *testing.T) {
	srv, _ := newTestServer(t)
	c, api := NewClient(context.Background(), srv.URL)
	c.Neighbors(3)
	n := api.RequestCount()
	c.Neighbors(3)
	c.Degree(3)
	_ = c.Neighbors(3)[0]
	if api.RequestCount() != n {
		t.Errorf("cache miss on revisit: %d -> %d requests", n, api.RequestCount())
	}
}

// TestClientDefaultTimeout: the client NewClient builds must not be
// http.DefaultClient, whose zero timeout hangs forever on a dead server.
func TestClientDefaultTimeout(t *testing.T) {
	_, c := NewClient(context.Background(), "http://example.invalid")
	if c.http == http.DefaultClient {
		t.Fatal("NewClient used http.DefaultClient")
	}
	if c.http.Timeout != DefaultTimeout {
		t.Errorf("default client timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
}

// TestClientContextDeadline: a client built under a deadline must abandon a
// hung server when it passes, surfaced via the client's panic convention.
func TestClientContextDeadline(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hc, _ := NewClient(ctx, hung.URL)

	done := make(chan string, 1)
	go func() {
		defer func() { done <- fmt.Sprint(recover()) }()
		hc.Neighbors(0)
	}()
	select {
	case msg := <-done:
		if !strings.Contains(msg, "context deadline exceeded") {
			t.Errorf("hung fetch panicked with %q, want a deadline error", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline-scoped fetch still blocked after 10s")
	}
}

// TestClientWireBoundary: what only the transport can get wrong. A server
// that answers with an unsorted, duplicated row must still yield the strict
// access.Client row (the memo's HasEdge binary-searches it), and a non-200
// answer must panic instead of reading as a degree-0 node.
func TestClientWireBoundary(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/nodes/7/neighbors" {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown node"})
			return
		}
		writeJSON(w, http.StatusOK, neighborsResponse{ID: 7, Degree: 5, Neighbors: []int32{9, 2, 5, 2, 9}})
	}))
	t.Cleanup(srv.Close)
	c, _ := NewClient(context.Background(), srv.URL)
	if got, want := c.Neighbors(7), []int32{2, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("row from an unsorted server = %v, want %v", got, want)
	}
	if !c.HasEdge(7, 5) || c.HasEdge(7, 3) {
		t.Error("HasEdge wrong on a row repaired at the wire boundary")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "404") {
			t.Errorf("fetch of an unknown node panicked with %q, want the 404 status", msg)
		}
	}()
	c.Neighbors(8)
}

// TestCrawlDropsSelfLoops: a server whose every row also lists the node
// itself must give the loop-free graph's estimate, bit for bit. Kept, the
// loop would be a v → v step of a d = 1 walk, counted in the stationary
// weights, and a one-node edge at d = 2.
func TestCrawlDropsSelfLoops(t *testing.T) {
	g := gen.HolmeKim(300, 3, 0.6, 7)
	estimate := func(cfg core.MultiConfig, loops bool) *core.MultiResult {
		h := NewHandler(g, 1)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var v int32
			if _, err := fmt.Sscanf(r.URL.Path, "/v1/nodes/%d/neighbors", &v); !loops || err != nil {
				h.ServeHTTP(w, r)
				return
			}
			row := slices.Clone(g.Neighbors(v))
			i, _ := slices.BinarySearch(row, v)
			writeJSON(w, http.StatusOK, neighborsResponse{ID: v, Degree: len(row) + 1, Neighbors: slices.Insert(row, i, v)})
		}))
		defer srv.Close()
		c, _ := NewClient(context.Background(), srv.URL)
		est, err := core.NewMultiEstimator(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := est.Run(5000)
		if err != nil {
			t.Fatalf("d=%d loops=%v: %v", cfg.D, loops, err)
		}
		return res
	}
	for _, cfg := range []core.MultiConfig{
		{Sizes: []int{3}, D: 1, Seed: 11, Walkers: 2},
		{Sizes: []int{4}, D: 2, CSS: true, Seed: 11, Walkers: 2},
	} {
		if got, want := estimate(cfg, true), estimate(cfg, false); !reflect.DeepEqual(got, want) {
			t.Errorf("d=%d: the estimate over self-looped rows differs from the loop-free graph's", cfg.D)
		}
	}
}

// TestEstimateOverHTTP runs the full framework over the HTTP boundary and
// checks it converges to the exact triangle concentration — the end-to-end
// proof of the restricted-access design.
func TestEstimateOverHTTP(t *testing.T) {
	srv, h := newTestServer(t)
	c, api := NewClient(context.Background(), srv.URL)
	est, err := core.NewMultiEstimator(c, core.MultiConfig{Sizes: []int{3}, D: 1, CSS: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := est.Run(30000)
	if err != nil {
		t.Fatal(err)
	}
	res := multi.Results[3]
	want := exact.Concentrations(exact.ThreeNodeCounts(h.g))
	got := res.Concentration()
	if math.Abs(got[1]-want[1]) > 0.2*want[1] {
		t.Errorf("triangle concentration over HTTP: got %.4f, want %.4f", got[1], want[1])
	}
	if api.RequestCount() >= 30000 {
		t.Errorf("caching ineffective: %d requests for 30000 steps on a 300-node graph", api.RequestCount())
	}
}

// TestParallelEstimateOverHTTP drives a 4-walker ensemble over the httptest
// boundary through one shared client (run with -race) on a graph with hubs.
// The crawl must cost exactly one neighbors request per distinct node plus
// the seed draws — the memo in front of the transport deduplicates every
// fetch, whichever walker asks first. The merged result and the request counts
// are identical across repeated runs against identically-seeded servers,
// because walker starts draw the server-side seeds in walker-index order.
// Each run gets a fresh server so /v1/nodes/random replays the same stream.
func TestParallelEstimateOverHTTP(t *testing.T) {
	g := gen.HolmeKim(800, 6, 0.6, 7) // eleven nodes of degree >= 64
	cfg := core.MultiConfig{Sizes: []int{3}, D: 1, CSS: true, Seed: 11, Walkers: 4}
	run := func() (*core.MultiResult, map[string]int) {
		var mu sync.Mutex
		hits := make(map[string]int)
		h := NewHandler(g, 1)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		defer srv.Close()
		c, api := NewClient(context.Background(), srv.URL)
		est, err := core.NewMultiEstimator(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := est.Run(20000)
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		for _, n := range hits {
			served += n
		}
		if int64(served) != api.RequestCount() {
			t.Errorf("client counted %d requests, server served %d", api.RequestCount(), served)
		}
		return res, hits
	}
	res1, hits1 := run()
	res2, hits2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Error("merged results differ across identical runs over HTTP")
	}
	if !reflect.DeepEqual(hits1, hits2) {
		t.Error("requests differ across identical runs over HTTP")
	}
	seeds := hits1["/v1/nodes/random"]
	delete(hits1, "/v1/nodes/random")
	if seeds < cfg.Walkers {
		t.Errorf("%d seed draws for %d walkers", seeds, cfg.Walkers)
	}
	for path, n := range hits1 {
		if n != 1 {
			t.Errorf("%s requested %d times, want once", path, n)
		}
	}
	if len(hits1) > g.NumNodes() {
		t.Errorf("%d distinct rows requested on a %d-node graph", len(hits1), g.NumNodes())
	}
	want := exact.Concentrations(exact.ThreeNodeCounts(g))
	got := res1.Results[3].Concentration()
	if math.Abs(got[1]-want[1]) > 0.2*want[1] {
		t.Errorf("4-walker triangle concentration over HTTP: got %.4f, want %.4f", got[1], want[1])
	}
}
