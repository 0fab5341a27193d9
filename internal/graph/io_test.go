package graph

import (
	"slices"
	"strings"
	"testing"
)

// The manual field scanner must accept everything the old
// TrimSpace+Fields+ParseInt path accepted.
func TestReadEdgeListWhitespaceForms(t *testing.T) {
	in := strings.Join([]string{
		"0 1",
		"\t1\t2",          // tabs
		"  2   0  ",       // leading/trailing runs of spaces
		"3 0 extra field", // trailing fields ignored
		"+4 0",            // explicit plus sign
		"",                // blank
		"   ",             // whitespace-only
		"# comment",
		"   % indented comment",
		"5 0\r", // CRLF line ending
	}, "\n")
	g, err := readEdgeList(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("parsed %v, want n=6 m=6", g)
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListBadInput(t *testing.T) {
	cases := map[string]string{
		"single field":   "7\n",
		"alpha field":    "a b\n",
		"alpha second":   "1 b\n",
		"trailing junk":  "1x 2\n",
		"bare sign":      "- 2\n",
		"int64 overflow": "99999999999999999999 1\n",
	}
	for name, in := range cases {
		if _, err := readEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name the line", name, err)
		}
	}
}

// A line exceeding the scanner buffer must fail with an actionable message,
// not a bare bufio.Scanner error.
func TestReadEdgeListLineTooLong(t *testing.T) {
	in := "0 1\n1 " + strings.Repeat("2", maxLineBytes+10) + "\n"
	_, err := readEdgeList(strings.NewReader(in), false)
	if err == nil {
		t.Fatal("expected error for over-long line")
	}
	msg := err.Error()
	for _, want := range []string{"line 2", "exceeds", "gcsr"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestScanInt(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		rest byte // byte at the returned index, 0 = end of line
	}{
		{"0", 0, 0},
		{"123 tail", 123, ' '},
		{"-42\t", -42, '\t'},
		{"+7", 7, 0},
		{"9223372036854775807", 1<<63 - 1, 0},
	} {
		got, i, err := scanInt([]byte(tc.in), 0, 1)
		if err != nil {
			t.Errorf("scanInt(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("scanInt(%q) = %d, want %d", tc.in, got, tc.want)
		}
		if tc.rest == 0 {
			if i != len(tc.in) {
				t.Errorf("scanInt(%q) stopped at %d, want end", tc.in, i)
			}
		} else if tc.in[i] != tc.rest {
			t.Errorf("scanInt(%q) stopped at %q, want %q", tc.in, tc.in[i], tc.rest)
		}
	}
	for _, bad := range []string{"", "-", "+", "12a", "9223372036854775808", "99999999999999999999"} {
		if _, _, err := scanInt([]byte(bad), 0, 1); err == nil {
			t.Errorf("scanInt(%q) accepted invalid input", bad)
		}
	}
}

// An ID seen only in self loops is a node iff a later line names a new ID
// (see readEdgeList); with keepIDs every node, and only a node, has an ID.
func TestReadEdgeListSelfLoopOnlyID(t *testing.T) {
	for _, c := range []struct {
		in    string
		nodes int
		edges int64
		ids   []int64
	}{
		{"0 0\n1 2\n", 3, 1, []int64{0, 1, 2}},
		{"1 2\n0 0\n", 2, 1, []int64{1, 2}},
		{"5 5\n", 0, 0, nil},
	} {
		for _, keepIDs := range []bool{false, true} {
			g, err := readEdgeList(strings.NewReader(c.in), keepIDs)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() != c.nodes || g.NumEdges() != c.edges {
				t.Errorf("%q keepIDs=%v: got %v, want n=%d m=%d", c.in, keepIDs, g, c.nodes, c.edges)
			}
			var want []int64
			if keepIDs {
				want = c.ids
			}
			if got := g.OriginalIDs(); !slices.Equal(got, want) {
				t.Errorf("%q keepIDs=%v: IDs %v, want %v", c.in, keepIDs, got, want)
			}
		}
	}
}
