package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// JobTimeout bounds one job from submission to terminal event; a job that
// takes longer counts as failed.
const JobTimeout = 60 * time.Second

// Client submits jobs to one graphletd base URL ("http://host:port") and
// waits for their terminal state on the job's event stream.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client whose transport keeps at most conns idle
// connections to the daemon, one per concurrent submitter.
func NewClient(base string, conns int) *Client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &Client{Base: strings.TrimSuffix(base, "/"), HTTP: &http.Client{Transport: tr}}
}

// Outcome is what one job did, on the client's clock.
type Outcome struct {
	Job Job
	// RequestID is the X-Request-Id sent with the submission ("" when the
	// run is not traced).
	RequestID string
	// Due is when the job was scheduled to be sent (equal to SubmitStart in a
	// closed loop), SubmitStart/SubmitEnd bracket the POST round trip, and
	// Terminal is when the terminal state reached the client: SubmitEnd for a
	// submission answered from the result cache, the arrival of the terminal
	// server-sent event otherwise.
	Due, SubmitStart, SubmitEnd, Terminal time.Time
	// View is the terminal JobView (zero when Err is set).
	View service.JobView
	// Err is why the job counts as failed: refused, failed, canceled,
	// timed out, or a transport error. Nil means state "done".
	Err error
}

// Latency is the job's end-to-end time as its submitter saw it, from the
// moment it was due.
func (o *Outcome) Latency() time.Duration { return o.Terminal.Sub(o.Due) }

// Do submits one spec and blocks until its terminal state. requestID, when
// non-empty, is sent as X-Request-Id so the daemon stamps it on the job.
func (c *Client) Do(ctx context.Context, job Job, requestID string) Outcome {
	ctx, cancel := context.WithTimeout(ctx, JobTimeout)
	defer cancel()
	out := Outcome{Job: job, RequestID: requestID, SubmitStart: time.Now()}
	out.Due = out.SubmitStart
	view, err := c.Submit(ctx, job.Spec, requestID)
	out.SubmitEnd = time.Now()
	out.Terminal = out.SubmitEnd
	if err == nil && !Terminal(view.State) {
		view, out.Terminal, err = c.await(ctx, view.ID)
	}
	if err == nil && view.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	out.View, out.Err = view, err
	if err != nil {
		out.Terminal = time.Now()
	}
	return out
}

// Terminal reports whether a job state is final.
func Terminal(s service.State) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCanceled
}

// Submit POSTs the spec without waiting for the job and decodes the JobView
// of the 200/202 answer.
func (c *Client) Submit(ctx context.Context, spec service.Spec, requestID string) (service.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobView{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return service.JobView{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return service.JobView{}, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.JobView{}, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return service.JobView{}, fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var view service.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		return service.JobView{}, fmt.Errorf("submit: bad job view: %w", err)
	}
	return view, nil
}

// events opens GET /v1/jobs/{id}/events.
func (c *Client) events(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best-effort detail for the error text
		resp.Body.Close()
		return nil, fmt.Errorf("events refused: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return resp.Body, nil
}

// scanEvents reads a server-sent-event stream and calls fn with the JobView
// of every data line and the time the line arrived, until fn returns false
// or the stream ends.
func scanEvents(r io.Reader, fn func(view service.JobView, at time.Time) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var view service.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			return fmt.Errorf("events: bad job view: %w", err)
		}
		if !fn(view, at) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return nil
}

// await follows the job's event stream to the first terminal JobView (the
// "done"/"failed"/"canceled" event, or an opening "snapshot" of a job that
// finished before the stream was opened) and returns it with its arrival
// time. The stream is then drained so the connection returns to the idle
// pool.
func (c *Client) await(ctx context.Context, id string) (service.JobView, time.Time, error) {
	body, err := c.events(ctx, id)
	if err != nil {
		return service.JobView{}, time.Time{}, err
	}
	defer body.Close()
	var last service.JobView
	var at time.Time
	err = scanEvents(body, func(view service.JobView, t time.Time) bool {
		last, at = view, t
		return !Terminal(view.State)
	})
	if err != nil {
		return service.JobView{}, time.Time{}, err
	}
	if !Terminal(last.State) {
		return service.JobView{}, time.Time{}, fmt.Errorf("events: stream of %s ended before a terminal event", id)
	}
	_, _ = io.Copy(io.Discard, body) // the server closes right after the terminal event
	return last, at, nil
}

// Watch follows a job's event stream and calls fn with every JobView that
// arrives, until fn returns false, the stream ends, or ctx is done.
func (c *Client) Watch(ctx context.Context, id string, fn func(service.JobView) bool) error {
	body, err := c.events(ctx, id)
	if err != nil {
		return err
	}
	defer body.Close()
	return scanEvents(body, func(view service.JobView, _ time.Time) bool { return fn(view) })
}

// Options selects how Run drives a job list.
type Options struct {
	// Conns is the number of submitters, each with at most one request in
	// flight: the client count of a closed loop, the connection cap of an
	// open one.
	Conns int
	// Open selects the open loop: job i is sent at start+Due (or as soon
	// after as a submitter is free) and timed from that instant, so a stall
	// delays — and is charged to — every later arrival. The closed loop sends
	// a submitter's next job as soon as its previous one completed.
	Open bool
	// TracePrefix, when set, tags every submission with the X-Request-Id
	// "<TracePrefix>-<index>".
	TracePrefix string
}

// Run drives the job list against the daemon and returns one Outcome per
// job, in list order. Jobs are handed out in order to whichever submitter is
// free; once ctx is done the remaining jobs fail without being sent.
func Run(ctx context.Context, c *Client, jobs []Job, o Options) []Outcome {
	outcomes := make([]Outcome, len(jobs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < max(o.Conns, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				rid := ""
				if o.TracePrefix != "" {
					rid = fmt.Sprintf("%s-%d", o.TracePrefix, i)
				}
				if err := ctx.Err(); err != nil {
					now := time.Now()
					outcomes[i] = Outcome{Job: jobs[i], RequestID: rid, Due: now, SubmitStart: now, SubmitEnd: now, Terminal: now, Err: err}
					continue
				}
				due := start.Add(jobs[i].Due)
				if o.Open {
					sleepUntil(ctx, due)
				}
				out := c.Do(ctx, jobs[i], rid)
				if o.Open {
					out.Due = due
				}
				outcomes[i] = out
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// sleepUntil blocks until t or until ctx is done.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}
