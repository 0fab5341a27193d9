package loadgen

import (
	"sort"
	"time"
)

// Span is one timed interval of a traced job. Spans of one job share its
// request ID; Parent names the span that caused this one ("" for the root).
type Span struct {
	RequestID string    `json:"request_id"`
	Name      string    `json:"name"`
	Parent    string    `json:"parent,omitempty"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
}

// Duration is the span's length (0 for an inverted or empty interval).
func (s Span) Duration() time.Duration {
	if s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SelfTime is the parent's duration minus the part of its interval that the
// union of the child spans covers. Children may overlap each other and may
// stick out of the parent; only their coverage inside the parent counts.
func SelfTime(parent Span, children []Span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if end.IsZero() || v.lo.After(end) {
			covered += v.hi.Sub(v.lo)
			end = v.hi
		} else if v.hi.After(end) {
			covered += v.hi.Sub(end)
			end = v.hi
		}
	}
	return parent.Duration() - covered
}

// JobSpans renders a succeeded outcome as its span tree: the root "job"
// (due time to terminal event) and, under it, "client.wait_due" (open loop
// only: due time to the start of the POST), "client.submit" (the POST round
// trip) and — for a job that ran — "service.queue_wait", "service.run"
// (from the JobView's created/started/finished timestamps) and
// "client.notify" (finished to the terminal event at the client).
//
// The daemon's timestamps arrive as wall-clock readings, so the client's are
// stripped of their monotonic part too: every interval of the tree is then
// arithmetic on one clock.
func JobSpans(o *Outcome) (root Span, children []Span) {
	due, submitStart, submitEnd, terminal := o.Due.Round(0), o.SubmitStart.Round(0), o.SubmitEnd.Round(0), o.Terminal.Round(0)
	root = Span{RequestID: o.RequestID, Name: "job", Start: due, End: terminal}
	child := func(name string, start, end time.Time) {
		children = append(children, Span{RequestID: o.RequestID, Name: name, Parent: "job", Start: start, End: end})
	}
	if submitStart.After(due) {
		child("client.wait_due", due, submitStart)
	}
	child("client.submit", submitStart, submitEnd)
	if v := &o.View; !v.Cached {
		child("service.queue_wait", v.CreatedAt, v.StartedAt)
		child("service.run", v.StartedAt, v.FinishedAt)
		child("client.notify", v.FinishedAt, terminal)
	}
	return root, children
}
