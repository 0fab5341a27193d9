package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Samples is one scrape of a Prometheus text exposition: sample value by
// series, the series written exactly as exposed (name plus label set, e.g.
// `graphletd_jobs_total{state="done"}`).
type Samples map[string]float64

// ParseMetrics reads the Prometheus text format: comment and blank lines are
// skipped, every other line is "<series> <value>[ <timestamp>]".
func ParseMetrics(r io.Reader) (Samples, error) {
	out := make(Samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the closing brace when it has labels (label
		// values may contain spaces), at the first space otherwise.
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value on line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value on line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// Delta returns after − before per series; a series absent from before
// counts from zero.
func Delta(before, after Samples) Samples {
	out := make(Samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Scrape fetches and parses GET /metrics of the daemon.
func (c *Client) Scrape(ctx context.Context) (Samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	return ParseMetrics(resp.Body)
}
