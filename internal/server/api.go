// api.go — the versioned wire types of the /v1 API.
//
// Every endpoint speaks a named request/response struct (not ad-hoc
// maps), and every failure uses one structured envelope:
//
//	{"error": {"code": "overloaded", "message": "update queue full"}}
//
// Status codes and their error codes:
//
//	400 bad_request    malformed JSON, wrong arity, magic unsupported
//	404 not_found      unknown relation
//	409 diverged       replica cursor past the leader's durable history
//	410 compacted      replica cursor before the retained WAL history
//	413 too_large      request body over 1 MiB
//	422 unprocessable  valid shape the engine rejects (IDB update,
//	                   insert+delete conflict, rewrite failure)
//	429 overloaded     update queue full (Retry-After is set)
//	503 not_leader     update sent to a read-only follower
//	                   (X-Leader-Addr names the writable leader)
//	503 unavailable    server shutting down
package server

import (
	"encoding/json"
	"net/http"

	"repro/internal/incr"
)

// Error codes carried in the error envelope.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeTooLarge      = "too_large"
	CodeUnprocessable = "unprocessable"
	CodeOverloaded    = "overloaded"
	CodeUnavailable   = "unavailable"
	CodeNotLeader     = "not_leader"
	CodeCompacted     = "compacted"
	CodeDiverged      = "diverged"
)

// ErrorBody is the inner object of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the uniform failure envelope of every /v1 endpoint.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Semantics  string         `json:"semantics"`
	Class      string         `json:"class"`
	Generation uint64         `json:"generation"`
	Universe   int            `json:"universe"`
	Relations  map[string]int `json:"relations"`
	UptimeSec  float64        `json:"uptime_sec"`
}

// RelationResponse answers GET /v1/relation.
type RelationResponse struct {
	Pred       string     `json:"pred"`
	Arity      int        `json:"arity"`
	Generation uint64     `json:"generation"`
	Tuples     [][]string `json:"tuples"`
}

// QueryRequest is the body of POST /v1/query: a pattern match with
// nil args as wildcards.  Magic selects the demand-driven path for an
// IDB predicate.
type QueryRequest struct {
	Pred  string    `json:"pred"`
	Args  []*string `json:"args"`
	Magic bool      `json:"magic,omitempty"`
}

// QueryResponse answers POST /v1/query.  The demand-driven fields
// (Adornment, Derived, Rounds) are populated only when
// Source is "magic".
type QueryResponse struct {
	Pred       string     `json:"pred"`
	Generation uint64     `json:"generation"`
	Count      int        `json:"count"`
	Tuples     [][]string `json:"tuples"`
	Source     string     `json:"source"`
	Adornment  string     `json:"adornment,omitempty"`
	Derived    int        `json:"derived,omitempty"`
	Rounds     int        `json:"rounds,omitempty"`
}

// UpdateRequest is the body of POST /v1/update.
type UpdateRequest struct {
	Insert []incr.Fact `json:"insert"`
	Delete []incr.Fact `json:"delete"`
}

// UpdateResponse answers POST /v1/update.  Generation is the snapshot
// that durably contains this request's changes.  Coalesced counts the
// concurrent requests folded into the same maintainer pass (1 = the
// request ran alone); Stats describe that whole pass.
type UpdateResponse struct {
	Generation uint64            `json:"generation"`
	Coalesced  int               `json:"coalesced"`
	Stats      *incr.UpdateStats `json:"stats"`
}

// PromoteResponse answers POST /v1/replica/promote.
type PromoteResponse struct {
	Promoted   bool   `json:"promoted"`
	Generation uint64 `json:"generation"`
}

// QueueMetrics reports the group-commit queue.
type QueueMetrics struct {
	Depth     int     `json:"depth"`
	Capacity  int     `json:"capacity"`
	Enqueued  int64   `json:"enqueued"`
	Rejected  int64   `json:"rejected"`
	Batches   int64   `json:"batches"`
	Coalesced int64   `json:"coalesced_updates"`
	MaxBatch  int64   `json:"max_batch"`
	MeanBatch float64 `json:"mean_batch"`
}

// CacheMetrics reports the magic rewrite cache.
type CacheMetrics struct {
	Size    int     `json:"size"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// MaintenanceMetrics reports what the maintainer did with the updates
// this server applied: how many each strategy handled, and how many
// layers — strata or Γ stages — they maintained by DRed and
// re-evaluated from scratch (incr.UpdateStats, summed).
type MaintenanceMetrics struct {
	Updates     map[string]int64 `json:"updates"`
	Maintained  int64            `json:"maintained_layers"`
	Reevaluated int64            `json:"reevaluated_layers"`
}

// DurableMetrics reports the persistence layer: WAL volume since the
// last checkpoint, checkpoint cadence, and what boot recovery did.
// Present in /v1/metrics only when the server runs with a data dir.
type DurableMetrics struct {
	FsyncPolicy             string  `json:"fsync_policy"`
	WALBytes                int64   `json:"wal_bytes"`
	WALRecords              int64   `json:"wal_records"`
	WALSegments             int     `json:"wal_segments"`
	AppendErrors            int64   `json:"append_errors"`
	Checkpoints             int64   `json:"checkpoints"`
	CheckpointErrors        int64   `json:"checkpoint_errors"`
	LastCheckpointAgeSec    float64 `json:"last_checkpoint_age_sec,omitempty"`
	LastCheckpointDurMs     float64 `json:"last_checkpoint_dur_ms,omitempty"`
	RecoveredSnapshot       bool    `json:"recovered_snapshot"`
	RecoveryReplayedRecords int     `json:"recovery_replayed_records"`
	RecoveryDurMs           float64 `json:"recovery_dur_ms"`
	CheckpointInFlight      bool    `json:"checkpoint_in_flight"`
	// Replication retention: sealed-but-retained segments, live
	// follower pins, and pins dropped by the bounded-lag policy.
	RetainedSegments int   `json:"retained_segments"`
	ReplicaPins      int   `json:"replica_pins"`
	ReplicaEvictions int64 `json:"replica_evictions"`
}

// ReplicaMetrics reports follower-mode replication: where the apply
// loop has reached in the leader's WAL, how far behind it is, and how
// rough the ride has been.  Present in /v1/metrics only on a follower.
type ReplicaMetrics struct {
	Leader         string  `json:"leader"`
	ReadOnly       bool    `json:"read_only"`
	AppliedSeq     uint64  `json:"applied_seq"`
	AppliedOffset  int64   `json:"applied_offset"`
	AppliedRecords int64   `json:"applied_records"`
	AppliedBytes   int64   `json:"applied_bytes"`
	LagRecords     int64   `json:"lag_records"`
	LagBytes       int64   `json:"lag_bytes"`
	LagMs          float64 `json:"lag_ms"`
	Reconnects     int64   `json:"reconnects"`
	Bootstraps     int64   `json:"bootstraps"`
}

// LatencyMetrics are microsecond latency estimates for one endpoint
// (percentiles carry the histogram's ≤25% bucket error).
type LatencyMetrics struct {
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
}

// EndpointMetrics report one endpoint's traffic.
type EndpointMetrics struct {
	Requests int64          `json:"requests"`
	Errors   int64          `json:"errors"`
	QPS10s   float64        `json:"qps_10s"`
	Latency  LatencyMetrics `json:"latency"`
}

// MetricsResponse answers GET /v1/metrics.
type MetricsResponse struct {
	UptimeSec      float64                    `json:"uptime_sec"`
	Generation     uint64                     `json:"generation"`
	SnapshotAgeSec float64                    `json:"snapshot_age_sec"`
	Queue          QueueMetrics               `json:"queue"`
	RewriteCache   CacheMetrics               `json:"rewrite_cache"`
	Maintenance    MaintenanceMetrics         `json:"maintenance"`
	Durable        *DurableMetrics            `json:"durable,omitempty"`
	Replica        *ReplicaMetrics            `json:"replica,omitempty"`
	Endpoints      map[string]EndpointMetrics `json:"endpoints"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the structured envelope.  A 429 also sets
// Retry-After so well-behaved clients back off instead of hammering.
func writeError(w http.ResponseWriter, status int, code, message string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: message}})
}
