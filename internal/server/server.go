// Package server exposes an incrementally maintained DATALOG¬ program
// over HTTP/JSON: point-in-time reads served from immutable snapshots
// by any number of concurrent readers, and fact updates applied by a
// single committer goroutine that group-commits concurrent batches
// into one maintainer pass (see queue.go).
//
// Endpoints (wire types in api.go, one structured error envelope):
//
//	GET  /v1/stats               program, semantics, generation, sizes
//	GET  /v1/relation?pred=s     all tuples of one relation
//	POST /v1/query               {"pred":"s","args":["v1",null]}  — null is a wildcard
//	POST /v1/update              {"insert":[{"pred":"E","args":["a","b"]}],"delete":[...]}
//	GET  /v1/metrics             QPS, latency percentiles, queue, cache
//
// Reads load the current snapshot pointer atomically and never block on
// updates; updates enqueue into the bounded group-commit queue (429 +
// Retry-After when full), are coalesced by the committer, maintained
// through internal/incr, and answered once the fresh sealed snapshot
// containing them is published.  Pattern queries with bound columns
// probe the snapshot's index on those columns.
//
// /v1/query additionally has a demand-driven fast path: with
// {"magic": true}, an IDB query is answered by magic-set rewriting the program for the query's adornment and
// evaluating the rewritten program against the snapshot's extensional
// relations — deriving only what the query can reach instead of
// reading the full materialization.  Rewritten programs are cached
// keyed by (predicate, adornment); they are query-constant free by
// construction, so the cache never needs invalidation (EDB updates
// change seeds and data, not the rewrite).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// Fixed limits of every server.
const (
	// queueDepth bounds the update queue; a full queue fails requests
	// with 429 (admission control).
	queueDepth = 256
	// maxBodyBytes caps request bodies; larger ones fail with 413
	// too_large.
	maxBodyBytes = 1 << 20
	// defaultCheckpointBatches is the checkpoint trigger of a durable
	// server whose Config leaves CheckpointBatches at 0.
	defaultCheckpointBatches = 256
)

// Config tunes one server instance.  The zero value is an in-memory
// server.
type Config struct {
	// DataDir enables durability: a checkpoint snapshot plus a
	// write-ahead log live under this directory, committed batches are
	// logged before they are acknowledged, and boot recovers from the
	// snapshot and replays the WAL suffix (durable.go).  Empty keeps
	// the server purely in-memory.
	DataDir string
	// Fsync is the WAL sync policy (always / off).
	Fsync durable.FsyncPolicy
	// CheckpointBatches checkpoints after this many committed batches.
	// 0 means 256.
	CheckpointBatches int

	// ReadOnly starts the server as a replication follower: updates
	// fail with 503 not_leader and LeaderAddr names the writable
	// leader in the X-Leader-Addr response header.  Promote() flips
	// the server writable.
	ReadOnly   bool
	LeaderAddr string
}

// Server serves one maintained program instance.
type Server struct {
	cfg   Config
	prog  *ast.Program
	class string // prog's syntactic class, computed once (Classify stratifies)
	edb   map[string]bool
	idb   map[string]bool
	arity map[string]int
	mu    sync.Mutex // serializes maintainer passes
	m     *incr.Maintainer
	cur   atomic.Pointer[incr.Snapshot]
	start time.Time
	met   *srvMetrics
	dur   *durState // durability runtime, nil without DataDir

	// Replication (replica.go): follower read-only gating and the
	// hooks a follower loop registers so /v1/metrics and promotion
	// reach it.
	readOnly   atomic.Bool
	leaderAddr string
	hookMu     sync.Mutex
	repStats   func() *ReplicaMetrics
	onPromote  func()

	// Group-commit update queue (queue.go).
	queue  chan *updateJob
	qstop  chan struct{}
	qdone  chan struct{}
	closed atomic.Bool

	// Demand-driven query support.  Point queries need a semantics
	// whose model is computed by strata: lfp, stratified, inflationary
	// on a positive or semipositive program, or well-founded on a
	// stratifiable one.
	magicOK  bool
	rwMu     sync.Mutex
	rewrites map[string]*magic.Rewritten // (pred, adornment) → prepared rewrite
}

// New builds a server maintaining prog on a private copy of db under
// the given semantics with default configuration, the initial
// evaluation done and published, and the committer running.
func New(prog *ast.Program, db *relation.Database, sem core.Semantics) (*Server, error) {
	return NewWith(prog, db, sem, Config{})
}

// NewWith is New with explicit configuration: durability and the
// follower role travel in cfg.
func NewWith(prog *ast.Program, db *relation.Database, sem core.Semantics, cfg Config) (*Server, error) {
	if cfg.CheckpointBatches <= 0 {
		cfg.CheckpointBatches = defaultCheckpointBatches
	}
	var (
		m   *incr.Maintainer
		dur *durState
		err error
	)
	if cfg.DataDir != "" {
		m, dur, err = recoverMaintainer(prog, db, sem, cfg)
	} else {
		m, err = incr.New(prog, db, sem)
	}
	if err != nil {
		return nil, err
	}
	arities, err := prog.Validate()
	if err != nil {
		if dur != nil {
			dur.store.Close()
		}
		return nil, err
	}
	class := prog.Classify()
	s := &Server{
		cfg:      cfg,
		prog:     prog,
		class:    class.String(),
		edb:      prog.EDB(),
		idb:      prog.IDB(),
		arity:    arities,
		m:        m,
		dur:      dur,
		start:    time.Now(),
		met:      newSrvMetrics(),
		queue:    make(chan *updateJob, queueDepth),
		qstop:    make(chan struct{}),
		qdone:    make(chan struct{}),
		rewrites: make(map[string]*magic.Rewritten),
	}
	s.leaderAddr = cfg.LeaderAddr
	s.readOnly.Store(cfg.ReadOnly)
	// One rule for every entry point (core.QueryStrategy): point
	// queries need a semantics whose model is computed by strata: lfp,
	// stratified, inflationary on a positive or semipositive program,
	// or well-founded on a stratifiable one.
	_, s.magicOK = core.QueryStrategy(sem, class)
	s.cur.Store(m.Snapshot())
	s.met.lastPublish.Set(time.Now().UnixNano())
	go s.committer()
	return s, nil
}

// MagicSupported reports whether the maintained semantics admits the
// demand-driven query path.
func (s *Server) MagicSupported() bool { return s.magicOK }

// RewriteCacheSize returns the number of cached (predicate, adornment)
// rewrites.
func (s *Server) RewriteCacheSize() int {
	s.rwMu.Lock()
	defer s.rwMu.Unlock()
	return len(s.rewrites)
}

// rewriteFor returns the cached rewrite for (pred, pattern), preparing
// and caching it on first use.
func (s *Server) rewriteFor(pred string, pattern []bool) (*magic.Rewritten, error) {
	key := pred + "/" + magic.Adornment(pattern)
	s.rwMu.Lock()
	defer s.rwMu.Unlock()
	if rw, ok := s.rewrites[key]; ok {
		s.met.cacheHits.Inc()
		return rw, nil
	}
	s.met.cacheMisses.Inc()
	rw, err := magic.Rewrite(s.prog, pred, pattern)
	if err != nil {
		return nil, err
	}
	s.rewrites[key] = rw
	return rw, nil
}

// Snapshot returns the currently published snapshot.
func (s *Server) Snapshot() *incr.Snapshot { return s.cur.Load() }

// Update applies one update through the maintainer and publishes the
// new snapshot, returning both.  Safe for concurrent use; passes are
// serialized, and the returned snapshot is the one this update
// published (a fresh s.cur.Load() could already belong to a later
// update).  With durability on, the batch is appended to the WAL
// before publication, so an answered update is a logged update.  After
// Close it fails with ErrClosed and leaves the maintainer alone.  HTTP
// traffic goes through EnqueueUpdate instead, which group-commits
// concurrent callers into shared passes.
func (s *Server) Update(ins, del []incr.Fact) (*incr.UpdateStats, *incr.Snapshot, error) {
	stats, snap, err := s.updateLocked(ins, del)
	if err == nil {
		s.maybeCheckpointAsync()
	}
	return stats, snap, err
}

func (s *Server) updateLocked(ins, del []incr.Fact) (*incr.UpdateStats, *incr.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	if s.dur != nil && s.dur.store.Err() != nil {
		// An earlier batch reached the maintainer but not the WAL.
		// Applying (or logging) anything more would diverge the
		// durable history from the state callers were acknowledged
		// against, so the write path stays fenced until restart.
		return nil, nil, ErrWALFailed
	}
	stats, err := s.m.Update(ins, del)
	if err != nil {
		return nil, nil, err
	}
	if logErr := s.logBatch(ins, del); logErr != nil {
		// logBatch fenced the write path.  The batch is never
		// published: readers keep seeing the last snapshot whose
		// batch is both applied and logged, which is exactly the
		// state recovery rebuilds.
		return nil, nil, logErr
	}
	snap := s.m.Snapshot()
	s.cur.Store(snap)
	s.met.lastPublish.Set(time.Now().UnixNano())
	s.met.observeUpdate(stats)
	return stats, snap, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /v1/relation", s.instrument("relation", s.handleRelation))
	mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("POST /v1/update", s.instrument("update", s.handleUpdate))
	mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/replica/snapshot", s.instrument("replica_snapshot", s.handleReplicaSnapshot))
	mux.HandleFunc("GET /v1/replica/wal", s.instrument("replica_wal", s.handleReplicaWAL))
	mux.HandleFunc("POST /v1/replica/promote", s.instrument("replica_promote", s.handleReplicaPromote))
	return mux
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.cur.Load()
	sizes := make(map[string]int, len(snap.Rels))
	for name, r := range snap.Rels {
		sizes[name] = r.Len()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Semantics:  snap.Sem.String(),
		Class:      s.class,
		Generation: snap.Gen,
		Universe:   snap.Universe.Size(),
		Relations:  sizes,
		UptimeSec:  time.Since(s.start).Seconds(),
	})
}

// names renders a tuple through the snapshot's universe.
func names(u *relation.Universe, t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = u.Name(v)
	}
	return out
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) {
	snap := s.cur.Load()
	pred := r.URL.Query().Get("pred")
	rel := snap.Relation(pred)
	if rel == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown relation %q", pred))
		return
	}
	tuples := make([][]string, 0, rel.Len())
	for _, t := range rel.Tuples() {
		tuples = append(tuples, names(snap.Universe, t))
	}
	writeJSON(w, http.StatusOK, RelationResponse{
		Pred: pred, Arity: rel.Arity(), Generation: snap.Gen, Tuples: tuples,
	})
}

// decodeBody decodes a JSON request body capped at maxBodyBytes,
// writing the error envelope on failure (413 too_large when the cap
// bites, 400 bad_request otherwise) and reporting success.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		} else {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		}
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q QueryRequest
	if !s.decodeBody(w, r, &q) {
		return
	}
	if q.Magic && s.idb[q.Pred] {
		if !s.magicOK {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("point queries need a semantics whose model is computed by strata: lfp, stratified, inflationary on a positive or semipositive program, or well-founded on a stratifiable one (program is %s, semantics %s)", s.class, s.cur.Load().Sem))
			return
		}
		s.handleMagicQuery(w, q)
		return
	}
	snap := s.cur.Load()
	rel := snap.Relation(q.Pred)
	if rel == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown relation %q", q.Pred))
		return
	}
	if len(q.Args) != rel.Arity() {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%s has arity %d, got %d args", q.Pred, rel.Arity(), len(q.Args)))
		return
	}
	var cols, vals []int
	known := true
	for i, a := range q.Args {
		if a == nil {
			continue
		}
		id, ok := snap.Universe.Lookup(*a)
		if !ok {
			known = false // constant not in the universe: nothing can match
			break
		}
		cols = append(cols, i)
		vals = append(vals, id)
	}
	tuples := [][]string{}
	if known {
		switch {
		case len(cols) == rel.Arity() && rel.Arity() > 0:
			if rel.Has(relation.Tuple(vals)) {
				tuples = append(tuples, names(snap.Universe, relation.Tuple(vals)))
			}
		case len(cols) == 0:
			for _, t := range rel.Tuples() {
				tuples = append(tuples, names(snap.Universe, t))
			}
		default:
			for _, off := range rel.LookupCols(cols, vals) {
				tuples = append(tuples, names(snap.Universe, rel.At(off)))
			}
		}
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Pred: q.Pred, Generation: snap.Gen, Count: len(tuples), Tuples: tuples,
		Source: "materialized",
	})
}

// handleMagicQuery answers an IDB query demand-driven: it rewrites
// the program for the query's adornment (cached), builds a throwaway
// working database over the snapshot's extensional relations (shared,
// sealed — only the universe is copied), and evaluates the rewritten
// program.  Concurrent magic queries and maintainer updates never
// block each other: everything read is an immutable snapshot.
func (s *Server) handleMagicQuery(w http.ResponseWriter, q QueryRequest) {
	if len(q.Args) != s.arity[q.Pred] {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%s has arity %d, got %d args", q.Pred, s.arity[q.Pred], len(q.Args)))
		return
	}
	mq := magic.Query{Pred: q.Pred}
	for _, a := range q.Args {
		if a == nil {
			mq.Args = append(mq.Args, magic.Free())
		} else {
			mq.Args = append(mq.Args, magic.Bound(*a))
		}
	}
	rw, err := s.rewriteFor(mq.Pred, mq.Pattern())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err.Error())
		return
	}

	snap := s.cur.Load()
	work := relation.NewDatabaseOn(snap.Universe.Clone())
	for pred := range s.edb {
		if r := snap.Rels[pred]; r != nil {
			work.Set(pred, r)
		}
	}
	res, err := semantics.QueryRewritten(rw, work, mq)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err.Error())
		return
	}
	tuples := make([][]string, 0, res.Tuples.Len())
	for _, t := range res.Tuples.Tuples() {
		tuples = append(tuples, names(res.Universe, t))
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Pred:       q.Pred,
		Generation: snap.Gen,
		Count:      len(tuples),
		Tuples:     tuples,
		Source:     "magic",
		Adornment:  mq.Adornment(),
		Derived:    res.Stats.Tuples,
		Rounds:     res.Stats.Rounds,
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var u UpdateRequest
	if !s.decodeBody(w, r, &u) {
		return
	}
	stats, gen, coalesced, err := s.EnqueueUpdate(u.Insert, u.Delete)
	switch {
	case errors.Is(err, ErrNotLeader):
		if s.leaderAddr != "" {
			w.Header().Set("X-Leader-Addr", s.leaderAddr)
		}
		writeError(w, http.StatusServiceUnavailable, CodeNotLeader, err.Error())
		return
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, CodeOverloaded, "update queue full; retry")
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		return
	case errors.Is(err, ErrWALFailed):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Generation: gen, Coalesced: coalesced, Stats: stats})
}
