package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// maxLineBytes is the longest edge-list line readEdgeList accepts. Anything
// longer is almost certainly not a plain "u v" edge list.
const maxLineBytes = 1 << 20

// readEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments; fields beyond the first two
// are ignored. Node IDs may be arbitrary non-negative integers; they are
// compacted to a dense range in order of first appearance. With keepIDs the
// dense→source ID mapping is attached to the graph: OriginalID(v) is the
// input ID that became dense node v, and LargestComponent carries it through
// its renumbering (OpenOptions.KeepIDs).
//
// Self loops are dropped, but their ID still takes the next dense number.
// An ID that occurs only in self loops therefore becomes an isolated node
// when a later line names a new ID, and no node otherwise, so the node count
// depends on line order: "0 0\n1 2" gives 3 nodes, "1 2\n0 0" gives 2.
//
// The per-line scanning is allocation-free (manual field splitting and
// integer parsing on the scanner's byte buffer), which is what keeps parsing
// multi-million-edge lists I/O-bound.
func readEdgeList(r io.Reader, keepIDs bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	remap := make(map[int64]int32)
	var ids []int64
	id := func(x int64) int32 {
		if v, ok := remap[x]; ok {
			return v
		}
		v := int32(len(remap))
		remap[x] = v
		if keepIDs {
			ids = append(ids, x)
		}
		return v
	}
	b := NewBuilder(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		i := skipSpace(line, 0)
		if i == len(line) || line[i] == '#' || line[i] == '%' {
			continue
		}
		u, i, err := scanInt(line, i, lineNo)
		if err != nil {
			return nil, err
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return nil, fmt.Errorf("graph: line %d: expected two fields, got %q", lineNo, line)
		}
		v, _, err := scanInt(line, i, lineNo)
		if err != nil {
			return nil, err
		}
		b.AddEdge(id(u), id(v))
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("graph: line %d: line exceeds the %d-byte limit (%v); input is not a plain edge list — binary graphs use the .gcsr format (see graph.Open)", lineNo+1, maxLineBytes, err)
		}
		return nil, err
	}
	g := b.Build()
	if keepIDs {
		// An ID seen only in self loops past the last edge endpoint got a
		// dense number but no node: drop it, so every node has one ID.
		g.origIDs = ids[:g.NumNodes()]
	}
	return g, nil
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\v', '\f':
			i++
		default:
			return i
		}
	}
	return i
}

// scanInt parses a decimal int64 starting at b[i], stopping at whitespace or
// end of line. It mirrors strconv.ParseInt's base-10 semantics (optional
// sign, overflow detection) without allocating.
func scanInt(b []byte, i, lineNo int) (int64, int, error) {
	start := i
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	const cutoff = (1<<63 - 1) / 10
	var x int64
	digits := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' {
			break
		}
		if c < '0' || c > '9' {
			return 0, i, fmt.Errorf("graph: line %d: bad integer %q", lineNo, b[start:i+1])
		}
		if x > cutoff {
			return 0, i, fmt.Errorf("graph: line %d: integer %q overflows int64", lineNo, b[start:])
		}
		x = x*10 + int64(c-'0')
		if x < 0 {
			return 0, i, fmt.Errorf("graph: line %d: integer %q overflows int64", lineNo, b[start:])
		}
		digits++
	}
	if digits == 0 {
		return 0, i, fmt.Errorf("graph: line %d: bad integer %q", lineNo, b[start:i])
	}
	if neg {
		x = -x
	}
	return x, i, nil
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) { return loadEdgeList(path, false) }

func loadEdgeList(path string, keepIDs bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readEdgeList(f, keepIDs)
}

// WriteEdgeList writes the graph as "u v" lines (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var werr error
	g.Edges(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
