package access

import (
	"math/rand"
	"time"
)

// Delayed wraps a Client and sleeps before every neighborhood fetch,
// simulating the response latency of a real OSN API (the paper's timing
// experiments exclude API delay; this wrapper lets users model it when
// planning crawl budgets). Edge probes are charged too, since a real crawler
// answers them from fetched neighbor lists it had to pay for.
type Delayed struct {
	inner   Client
	latency time.Duration
}

// NewDelayed wraps inner with a fixed per-call latency.
func NewDelayed(inner Client, latency time.Duration) *Delayed {
	return &Delayed{inner: inner, latency: latency}
}

func (d *Delayed) pause() {
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
}

// Degree implements Client.
func (d *Delayed) Degree(v int32) int { d.pause(); return d.inner.Degree(v) }

// Neighbors implements Client.
func (d *Delayed) Neighbors(v int32) []int32 { d.pause(); return d.inner.Neighbors(v) }

// HasEdge implements Client.
func (d *Delayed) HasEdge(u, v int32) bool { d.pause(); return d.inner.HasEdge(u, v) }

// RandomNode implements Client.
func (d *Delayed) RandomNode(rng *rand.Rand) int32 { return d.inner.RandomNode(rng) }
