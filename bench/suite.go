package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// child runs one workload in a process of its own — the way the driver does
// — and returns its JSON result line. A fresh process per run keeps
// lib_replicas' own-process CPU and RSS clean and gives every run the same
// cold start.
func child(ctx context.Context, p *procs, o options, workload string, seed int64, echo bool) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// A child bench stops its own daemons on SIGTERM, which is what cleanup
	// sends it; SIGKILL is only the backstop for one that does not exit.
	if err := p.start(cmd, syscall.SIGTERM); err != nil {
		return line, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-ctx.Done():
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill() // may already be gone
			err = <-done
		}
	}
	p.forget(cmd)
	text := strings.TrimRight(out.String(), "\n")
	if echo {
		fmt.Println(text)
	}
	if ctx.Err() != nil {
		return line, ctx.Err()
	}
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
		if err != nil {
			return line, fmt.Errorf("%s: %w", workload, err)
		}
		return line, fmt.Errorf("%s: last output line is not a result: %w", workload, jerr)
	}
	if err != nil || !line.Correct {
		return line, fmt.Errorf("%s: incorrect or failed run (attempted %d, failed %d): %v", workload, line.Attempted, line.Failed, err)
	}
	return line, nil
}

// runSuite runs all six workloads, one child each, and prints every metric.
func runSuite(ctx context.Context, p *procs, o options) int {
	code := 0
	for _, w := range workloads {
		if _, err := child(ctx, p, o, w.Name, o.seed, true); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		if ctx.Err() != nil {
			return 130
		}
	}
	return code
}

// spread is the interquartile range of xs as a share of their median — the
// statistic the driver holds against each bound. Python's
// statistics.quantiles(n=4) uses the exclusive method; so does this.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// exclusive method: position p·(n+1) in 1-based order statistics
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := stats.Quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// runAA is the A/A self-check: two sets of -runs runs of this same binary
// per workload (run i of both sets uses seed+i), then one table of both
// medians, their relative gap and each set's spread per (metric, workload).
// It fails if set B's median is worse than set A's by more than the metric's
// bound, or if a spread exceeds the bound — the two things the driver
// checks before it accepts the benchmark.
func runAA(ctx context.Context, p *procs, o options) int {
	o.trace = false
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		for _, w := range workloads {
			for i := 0; i < max(o.runs, 1); i++ {
				line, err := child(ctx, p, o, w.Name, o.seed+int64(i), false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, mv := range line.Metrics {
					k := key{w.Name, name}
					sets[set][k] = append(sets[set][k], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: A/A set %c %s run %d/%d done\n", 'A'+set, w.Name, i+1, o.runs)
			}
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "%-14s %-24s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			ma, mb := stats.Quantile(a, 0.5), stats.Quantile(b, 0.5)
			gap := (mb - ma) / ma // positive = B larger
			worse := gap
			if d.Better == "higher" {
				worse = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "FAIL: medians disagree beyond the bound"
				code = 1
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "FAIL: spread beyond the bound"
				code = 1
			case d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(out, "%-14s %-24s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return code
}
