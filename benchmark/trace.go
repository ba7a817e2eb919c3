// trace.go — spans recorded from the harness's own files, around its
// calls into each layer.  Tracing inside the program is a later change.
// Spans are kept in memory and written out when the run ends.
package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval.  Spans of one operation share Op; Parent
// is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was opened
	EndNs   int64  `json:"end_ns"`
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, start, end time.Time, parent, op int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part its children cover.
func (l *spanLog) selfTimes() map[string][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make(map[int]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNs-s.StartNs-covered[s.ID]))
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perLayerNames lists every per-layer metric.  A traced run prints all
// of them; a layer that is not on a workload's path reads 0 there.
var perLayerNames = []struct{ name, unit string }{
	{"parser.parse_ms", "ms"},
	{"relation.has_ns", "ns"},
	{"relation.lookup_ns", "ns"},
	{"relation.add_ns", "ns"},
	{"engine.theta_round_us", "us"},
	{"semantics.eval_ms.lfp", "ms"},
	{"semantics.eval_ms.inflationary", "ms"},
	{"semantics.eval_ms.stratified", "ms"},
	{"semantics.eval_ms.wellfounded", "ms"},
	{"semantics.rounds.lfp", "count"},
	{"semantics.rounds.inflationary", "count"},
	{"semantics.rounds.stratified", "count"},
	{"semantics.rounds.wellfounded", "count"},
	{"semantics.tuples.lfp", "count"},
	{"semantics.tuples.inflationary", "count"},
	{"semantics.tuples.stratified", "count"},
	{"semantics.tuples.wellfounded", "count"},
	{"magic.rewrite_us", "us"},
	{"semantics.query_rewritten_us", "us"},
	{"incr.new_ms", "ms"},
	{"incr.update_us_p50", "us"},
	{"incr.update_us_p95", "us"},
	{"incr.changed_tuples", "count"},
	{"incr.update_replay_us_p50", "us"},
	{"incr.snapshot_us", "us"},
	{"incr.checkpoint_capture_us", "us"},
	{"incr.restore_ms", "ms"},
	{"durable.encode_record_ns", "ns"},
	{"durable.append_nosync_us_p50", "us"},
	{"durable.append_us_p50", "us"},
	{"durable.fsync_us_p50", "us"},
	{"durable.wal_bytes_per_update", "bytes"},
	{"durable.snapshot_write_ms", "ms"},
	{"durable.snapshot_read_ms", "ms"},
	{"durable.snapshot_bytes", "bytes"},
	{"durable.snapshot_file_bytes", "bytes"},
	{"durable.checkpoint_install_ms", "ms"},
	{"durable.open_replay_ms", "ms"},
	{"server.update_us_p50", "us"},
	{"server.enqueue_us_p50", "us"},
	{"server.http_update_us_p50", "us"},
	{"server.queue_self_us", "us"},
	{"server.codec_update_self_us", "us"},
	{"server.http_query_us_p50", "us"},
	{"server.http_query_magic_us_p50", "us"},
	{"server.http_relation_us_p50", "us"},
	{"server.http_stats_us_p50", "us"},
	{"server.response_bytes_per_read", "bytes"},
	{"client.net_self_us", "us"},
	{"client.net_update_self_us", "us"},
	{"client.contention_read_us", "us"},
	{"client.contention_update_us", "us"},
	{"client.unattributed_us", "us"},
	{"client.throughput_ops_s", "ops/s"},
	{"client.recovery_s", "s"},
	{"client.eval_s", "s"},
	{"client.read_p50_ms", "ms"},
	{"client.update_p50_ms", "ms"},
	{"client.read_p95_ms", "ms"},
	{"client.update_p95_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.update_p99_ms", "ms"},
	{"client.read_samples_per_window", "count"},
	{"client.update_samples_per_window", "count"},
	{"client.window_iqr_pct", "%"},
	{"server.queue_mean_batch", "count"},
	{"server.queue_rejected", "count"},
	{"server.rewrite_cache_hit_rate", "ratio"},
	{"engine.filter_skip_rate", "ratio"},
	{"durable.checkpoints", "count"},
	{"durable.checkpoint_ms_last", "ms"},
	{"replica.bootstrap_ms", "ms"},
	{"replica.catchup_records_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// newLayerResult starts a traced run's result with every per-layer
// metric at 0, "not on this workload's path".
func newLayerResult() *result {
	res := newResult(0, 0)
	for _, m := range perLayerNames {
		res.set(m.name, m.unit, 0)
	}
	return res
}

// layer sets one per-layer metric, keeping its declared unit.
func (r *result) layer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	m.Value = v
	r.Metrics[name] = m
}
