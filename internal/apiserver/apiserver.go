// Package apiserver makes the paper's restricted-access scenario literal: it
// serves a graph through the kind of HTTP API an OSN exposes (fetch a user's
// friend list) and provides the transport an access.Memo crawls that API
// through — so the estimators demonstrably work over a network boundary with
// no bulk access to the topology.
//
// Endpoints (JSON):
//
//	GET /v1/nodes/{id}/neighbors  -> {"id":7,"degree":3,"neighbors":[1,5,9]}
//	GET /v1/nodes/random          -> {"id":42}
//
// There is no edge endpoint: a crawler answers adjacency probes from the
// friend lists it already paid for (access.Memo.HasEdge).
//
// The handler deliberately does NOT expose node or edge counts in bulk,
// matching the paper's assumption that only local information is crawlable.
package apiserver

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Handler serves the crawl API for one graph.
type Handler struct {
	g *graph.Graph

	mu  sync.Mutex
	rng *rand.Rand
}

// NewHandler builds the API handler; seed drives /nodes/random.
func NewHandler(g *graph.Graph, seed int64) *Handler {
	return &Handler{g: g, rng: rand.New(rand.NewSource(seed))}
}

type neighborsResponse struct {
	ID        int32   `json:"id"`
	Degree    int     `json:"degree"`
	Neighbors []int32 `json:"neighbors"`
}

type randomNodeResponse struct {
	ID int32 `json:"id"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/nodes/random":
		h.mu.Lock()
		id := h.g.RandomNode(h.rng)
		h.mu.Unlock()
		writeJSON(w, http.StatusOK, randomNodeResponse{ID: id})
	case strings.HasPrefix(r.URL.Path, "/v1/nodes/") && strings.HasSuffix(r.URL.Path, "/neighbors"):
		idStr := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/nodes/"), "/neighbors")
		id, err := strconv.ParseInt(idStr, 10, 32)
		if err != nil || id < 0 || int(id) >= h.g.NumNodes() {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown node %q", idStr)})
			return
		}
		v := int32(id)
		writeJSON(w, http.StatusOK, neighborsResponse{
			ID:        v,
			Degree:    h.g.Degree(v),
			Neighbors: h.g.Neighbors(v),
		})
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not found"})
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
