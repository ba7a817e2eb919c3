// Package metrics provides the lock-cheap telemetry primitives behind
// the serve daemon's /v1/metrics endpoint: monotonic counters, a
// per-second ring for recent request rates, and a log-bucketed
// streaming histogram for latency percentiles.
//
// Everything is built from atomics — the hot path (one Observe per
// request) is a handful of atomic adds, never a lock — so request
// handlers on every connection and concurrent metrics scrapes never
// contend.  Reads are racy-but-coherent: a scrape may see a histogram
// mid-update, which perturbs a percentile by at most the in-flight
// requests; for monitoring that is the right trade.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonic event counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the last stored value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max ratchets the gauge up to n if n is larger.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Histogram bucket layout: 4 sub-buckets per power of two ("octave"),
// so a bucket's upper bound exceeds its lower by at most 25% —
// percentile estimates carry at most that relative error, constant
// memory, and Observe is two shifts and one atomic add.  Durations are
// measured in nanoseconds; 64 octaves × 4 sub-buckets cover the full
// int64 range.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits // sub-buckets per octave
	histBuckets = 64 * histSub
)

// Histogram is a streaming latency estimator: fixed log-spaced atomic
// buckets plus exact count/sum.  The zero value is ready to use.
type Histogram struct {
	count  atomic.Int64
	sum    atomic.Int64
	bucket [histBuckets]atomic.Int64
}

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1                       // position of the top bit
	sub := int(ns>>(uint(exp)-histSubBits)) & (histSub - 1) // next bits below it
	return exp<<histSubBits | sub
}

// bucketMax returns the inclusive upper bound of a bucket — the value
// Quantile reports, so estimates over-approximate by at most 25%.
func bucketMax(i int) int64 {
	exp := i >> histSubBits
	sub := int64(i & (histSub - 1))
	if i < histSub {
		return int64(i) // the first buckets hold exact single values
	}
	return (int64(histSub)+sub+1)<<(uint(exp)-histSubBits) - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.bucket[bucketIdx(ns)].Add(1)
}

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of
// the bucket holding the observation of nearest rank ⌈q·count⌉ — an
// over-estimate by less than one bucket width (at most 25% relative).
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.bucket {
		cum += h.bucket[i].Load()
		if cum >= target {
			return time.Duration(bucketMax(i))
		}
	}
	return time.Duration(bucketMax(histBuckets - 1))
}

// windowSlots sizes the per-second ring; rates can be asked over up to
// windowSlots-1 trailing complete seconds.
const windowSlots = 64

// Window counts events into a ring of per-second slots, for "recent
// QPS" style rates that ignore ancient history.  The zero value is
// ready to use.
type Window struct {
	slot [windowSlots]struct {
		epoch atomic.Int64 // unix second this slot currently counts
		n     atomic.Int64
	}
}

// Add records one event at time now.
func (w *Window) Add(now time.Time) {
	sec := now.Unix()
	s := &w.slot[sec%windowSlots]
	if e := s.epoch.Load(); e != sec {
		// The slot belongs to a lapped second: one winner resets it.
		if s.epoch.CompareAndSwap(e, sec) {
			s.n.Store(0)
		}
	}
	s.n.Add(1)
}

// Rate returns events per second over the trailing `seconds` complete
// seconds before now (the current in-progress second is excluded, so a
// scrape early in a second does not read an artificially low rate).
func (w *Window) Rate(now time.Time, seconds int) float64 {
	if seconds <= 0 || seconds > windowSlots-1 {
		seconds = windowSlots - 1
	}
	sec := now.Unix()
	var total int64
	for i := 1; i <= seconds; i++ {
		s := &w.slot[(sec-int64(i))%windowSlots]
		if s.epoch.Load() == sec-int64(i) {
			total += s.n.Load()
		}
	}
	return float64(total) / float64(seconds)
}

// Endpoint aggregates one HTTP endpoint's traffic: request and error
// counters, a recent-rate window, and a latency histogram.
type Endpoint struct {
	Requests Counter
	Errors   Counter
	Recent   Window
	Latency  Histogram
}

// Observe records one request.
func (e *Endpoint) Observe(start time.Time, d time.Duration, isErr bool) {
	e.Requests.Inc()
	if isErr {
		e.Errors.Inc()
	}
	e.Recent.Add(start)
	e.Latency.Observe(d)
}
