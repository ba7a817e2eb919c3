// metrics.go — per-endpoint telemetry and the /v1/metrics endpoint.
//
// Every handler is wrapped by instrument(), which records request
// count, error count, a recent-rate window, and a latency histogram
// into internal/metrics atomics — no locks on the request path, so
// metrics scrapes and traffic never contend.  /v1/metrics renders the
// whole picture: per-endpoint QPS and p50/p90/p99, snapshot age,
// group-commit queue depth and batch sizes, the magic rewrite cache
// hit rate, and what maintenance did with the updates.
package server

import (
	"net/http"
	"time"

	"repro/internal/incr"
	"repro/internal/metrics"
)

// srvMetrics aggregates the server's telemetry.
type srvMetrics struct {
	endpoints map[string]*metrics.Endpoint
	// Group-commit queue accounting.
	enqueued  metrics.Counter
	rejected  metrics.Counter
	batches   metrics.Counter
	coalesced metrics.Counter
	maxBatch  metrics.Gauge
	// lastPublish is the unix-nano time the current snapshot was
	// published (snapshot age = now - lastPublish).
	lastPublish metrics.Gauge
	// Rewrite-cache accounting.
	cacheHits   metrics.Counter
	cacheMisses metrics.Counter
	// Maintenance accounting: updates per strategy, and the layers
	// they maintained by DRed and re-evaluated.
	strategies  map[string]*metrics.Counter
	maintained  metrics.Counter
	reevaluated metrics.Counter
}

// strategyNames are the values of incr.UpdateStats.Strategy.
var strategyNames = []string{"strata", "alternation", "recompute", "noop"}

// endpointNames are the instrumented endpoints, in display order.
var endpointNames = []string{"stats", "relation", "query", "update", "metrics",
	"replica_snapshot", "replica_wal", "replica_promote"}

func newSrvMetrics() *srvMetrics {
	m := &srvMetrics{
		endpoints:  make(map[string]*metrics.Endpoint, len(endpointNames)),
		strategies: make(map[string]*metrics.Counter, len(strategyNames)),
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &metrics.Endpoint{}
	}
	for _, name := range strategyNames {
		m.strategies[name] = &metrics.Counter{}
	}
	return m
}

// observeUpdate accounts one applied update to the maintenance block.
func (m *srvMetrics) observeUpdate(st *incr.UpdateStats) {
	if c := m.strategies[st.Strategy]; c != nil {
		c.Inc()
	}
	m.maintained.Add(int64(st.Maintained))
	m.reevaluated.Add(int64(st.Reevaluated))
}

// statusWriter captures the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with latency/error observation under the
// named endpoint.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.met.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ep.Observe(start, time.Since(start), sw.status >= 400)
	}
}

// latencyUs renders a histogram as microsecond summary numbers.
func latencyUs(h *metrics.Histogram) LatencyMetrics {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LatencyMetrics{
		MeanUs: us(h.Mean()),
		P50Us:  us(h.Quantile(0.50)),
		P90Us:  us(h.Quantile(0.90)),
		P99Us:  us(h.Quantile(0.99)),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	snap := s.cur.Load()

	resp := MetricsResponse{
		UptimeSec:  now.Sub(s.start).Seconds(),
		Generation: snap.Gen,
		Endpoints:  make(map[string]EndpointMetrics, len(endpointNames)),
	}
	if pub := s.met.lastPublish.Load(); pub > 0 {
		resp.SnapshotAgeSec = now.Sub(time.Unix(0, pub)).Seconds()
	}

	batches := s.met.batches.Load()
	resp.Queue = QueueMetrics{
		Depth:     len(s.queue),
		Capacity:  cap(s.queue),
		Enqueued:  s.met.enqueued.Load(),
		Rejected:  s.met.rejected.Load(),
		Batches:   batches,
		Coalesced: s.met.coalesced.Load(),
		MaxBatch:  s.met.maxBatch.Load(),
	}
	if batches > 0 {
		resp.Queue.MeanBatch = float64(resp.Queue.Coalesced) / float64(batches)
	}

	hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load()
	resp.RewriteCache = CacheMetrics{Size: s.RewriteCacheSize(), Hits: hits, Misses: misses}
	if hits+misses > 0 {
		resp.RewriteCache.HitRate = float64(hits) / float64(hits+misses)
	}

	resp.Maintenance = MaintenanceMetrics{
		Updates:     make(map[string]int64, len(strategyNames)),
		Maintained:  s.met.maintained.Load(),
		Reevaluated: s.met.reevaluated.Load(),
	}
	for name, c := range s.met.strategies {
		resp.Maintenance.Updates[name] = c.Load()
	}

	resp.Durable = s.durableMetrics(now)

	s.hookMu.Lock()
	repStats := s.repStats
	s.hookMu.Unlock()
	if repStats != nil {
		resp.Replica = repStats()
		resp.Replica.ReadOnly = s.readOnly.Load()
	}

	for name, ep := range s.met.endpoints {
		resp.Endpoints[name] = EndpointMetrics{
			Requests: ep.Requests.Load(),
			Errors:   ep.Errors.Load(),
			QPS10s:   ep.Recent.Rate(now, 10),
			Latency:  latencyUs(&ep.Latency),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
