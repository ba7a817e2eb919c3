package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBounds: every value lands in a bucket whose reported upper
// bound is ≥ the value and within 25% of it — the histogram's accuracy
// contract.
func TestBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(ns int64) {
		i := bucketIdx(ns)
		max := bucketMax(i)
		if max < ns {
			t.Fatalf("bucketMax(%d)=%d < value %d", i, max, ns)
		}
		if ns >= histSub && float64(max) > 1.25*float64(ns) {
			t.Fatalf("bucketMax(%d)=%d exceeds value %d by more than 25%%", i, max, ns)
		}
	}
	for ns := int64(0); ns < 4096; ns++ {
		check(ns)
	}
	for i := 0; i < 10000; i++ {
		check(rng.Int63())
	}
}

// TestQuantileAccuracy: quantiles of a known uniform distribution are
// over-estimated by at most one bucket (25%), never under-estimated
// below the true quantile's bucket.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	const n = 100000
	vals := make([]int64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = 1000 + rng.Int63n(int64(time.Millisecond)) // 1µs .. ~1ms
		h.Observe(time.Duration(vals[i]))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := vals[int(q*float64(n))-1]
		got := int64(h.Quantile(q))
		if got < truth/2 || float64(got) > 1.25*float64(truth)+1 {
			t.Errorf("q=%.2f: got %d, true %d — outside the accuracy contract", q, got, truth)
		}
	}
	if h.count.Load() != n {
		t.Errorf("count = %d, want %d", h.count.Load(), n)
	}
	if m := h.Mean(); m < time.Microsecond || m > time.Millisecond {
		t.Errorf("mean = %v out of range", m)
	}
}

// TestQuantileSmallSamples: the estimate is the nearest-rank
// observation's bucket, never a bucket below it — p99 of two samples is
// the larger one, and p50 of three the middle one.
func TestQuantileSmallSamples(t *testing.T) {
	for _, c := range []struct {
		obs  []time.Duration
		q    float64
		want time.Duration
	}{
		{[]time.Duration{time.Millisecond, 100 * time.Millisecond}, 0.99, 100 * time.Millisecond},
		{[]time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}, 0.5, 2 * time.Millisecond},
	} {
		var h Histogram
		for _, d := range c.obs {
			h.Observe(d)
		}
		got := h.Quantile(c.q)
		if max := time.Duration(bucketMax(bucketIdx(int64(c.want)))); got < c.want || got > max {
			t.Errorf("p%.0f of %v = %v, want within [%v, %v]", 100*c.q, c.obs, got, c.want, max)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("empty histogram mean = %v, want 0", got)
	}
}

// TestWindowRate: events spread over known seconds produce the exact
// trailing rate, and lapped slots from long ago are ignored.
func TestWindowRate(t *testing.T) {
	var w Window
	base := time.Unix(1_000_000, 0)
	// 10 events in each of the 5 seconds before "now".
	for s := 1; s <= 5; s++ {
		for i := 0; i < 10; i++ {
			w.Add(base.Add(-time.Duration(s) * time.Second))
		}
	}
	if got := w.Rate(base, 5); got != 10 {
		t.Fatalf("rate over 5s = %v, want 10", got)
	}
	// Over 10 trailing seconds the same 50 events halve the rate.
	if got := w.Rate(base, 10); got != 5 {
		t.Fatalf("rate over 10s = %v, want 5", got)
	}
	// An hour later every slot is stale: rate is zero.
	if got := w.Rate(base.Add(time.Hour), 5); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

// TestConcurrentObserve hammers one endpoint from many goroutines;
// counts must be exact (run under -race to prove lock-freedom is
// sound).
func TestConcurrentObserve(t *testing.T) {
	var e Endpoint
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Observe(start, time.Duration(i)*time.Microsecond, i%10 == 0)
			}
		}(w)
	}
	wg.Wait()
	if got := e.Requests.Load(); got != workers*per {
		t.Errorf("requests = %d, want %d", got, workers*per)
	}
	if got := e.Errors.Load(); got != workers*per/10 {
		t.Errorf("errors = %d, want %d", got, workers*per/10)
	}
	if got := e.Latency.count.Load(); got != workers*per {
		t.Errorf("latency count = %d, want %d", got, workers*per)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Set(1)
	if got := g.Load(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
}
