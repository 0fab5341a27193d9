// Package walk implements random walks on the d-node subgraph relationship
// graph G(d) of a restricted-access graph (paper §2.1, §5). A state is a set
// of d nodes inducing a connected subgraph of G; G(d) joins two states that
// share d-1 nodes (G(1) is G itself). Neighbor generation is on the fly:
// O(1) for d = 1 and d = 2 as the paper's implementation section prescribes,
// and for d >= 3 the merge kernel of kernel.go, which yields the paper's
// neighbor lists in the same order without materializing them.
//
// The package provides the plain simple random walk (SRW) and the
// non-backtracking variant (NB-SRW, paper §4.2).
package walk

import "fmt"

// MaxD is the largest supported walk order (k-1 for k = 5... plus d = k
// itself for the SRW-on-G(k) baseline, so 5).
const MaxD = 5

// State is a set of up to MaxD nodes inducing a connected subgraph, stored
// sorted ascending. The zero State is empty. State is comparable and usable
// as a map key.
type State struct {
	v [MaxD]int32
	n uint8
}

// StateOf builds a state from the given nodes, for callers whose nodes are
// known to form one (ParseState's errors are bugs here, and panic).
func StateOf(nodes ...int32) State {
	s, err := ParseState(nodes)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseState checks a node list as a state: 1..MaxD distinct nodes, in any
// order (they are sorted into the state). StateOf and the checkpoint
// decoder both check node lists through it; the decoder calls it where the
// bytes enter, so a malformed list is an error there, never a panic later.
// Connectivity is not checked — it is a property of the graph, not of the
// list.
func ParseState(nodes []int32) (State, error) {
	if len(nodes) == 0 || len(nodes) > MaxD {
		return State{}, fmt.Errorf("walk: state of %d nodes, want 1..%d", len(nodes), MaxD)
	}
	var s State
	s.n = uint8(len(nodes))
	copy(s.v[:], nodes)
	// Insertion sort (<= 5 elements).
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && s.v[j] < s.v[j-1]; j-- {
			s.v[j], s.v[j-1] = s.v[j-1], s.v[j]
		}
	}
	for i := 1; i < len(nodes); i++ {
		if s.v[i] == s.v[i-1] {
			return State{}, fmt.Errorf("walk: state has duplicate node %d", s.v[i])
		}
	}
	return s, nil
}

// edgeState is StateOf(u, v) with one comparison for the sort. Rows come
// from outside the program (a .gcsr file, a crawl server), so an equal pair
// still panics as StateOf does.
func edgeState(u, v int32) State {
	if u == v {
		panic(fmt.Errorf("walk: state has duplicate node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return State{v: [MaxD]int32{u, v}, n: 2}
}

// SortedState builds a state from 1..MaxD nodes that are already ascending
// and distinct, which the caller guarantees: ParseState's sort and duplicate
// check are skipped.
func SortedState(nodes []int32) State {
	var s State
	s.n = uint8(copy(s.v[:], nodes))
	return s
}

// Len returns the number of nodes in the state.
func (s State) Len() int { return int(s.n) }

// Node returns the i-th node (sorted order).
func (s State) Node(i int) int32 { return s.v[i] }

// Contains reports whether x is one of the state's nodes.
func (s State) Contains(x int32) bool {
	for i := 0; i < int(s.n); i++ {
		if s.v[i] == x {
			return true
		}
	}
	return false
}

// String renders the state as (v1,v2,...).
func (s State) String() string {
	out := "("
	for i := 0; i < int(s.n); i++ {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(s.v[i])
	}
	return out + ")"
}
