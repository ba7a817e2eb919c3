// replica.go — the leader side of WAL log-shipping replication, plus
// follower promotion.
//
// The protocol is two idempotent GETs over the daemon's existing HTTP
// plumbing:
//
//	GET /v1/replica/snapshot?id=F
//	    Streams the current checkpoint (the durable snapshot.bin
//	    image, exactly the bytes recovery reads).  The response
//	    headers carry the WAL cursor the follower must resume from —
//	    computed and pinned atomically, so compaction cannot race the
//	    bootstrap — plus the program/semantics identity for the
//	    follower's divergence check.
//
//	GET /v1/replica/wal?from=<seq>,<off>&id=F&wait=<secs>
//	    Long-polls complete, checksum-verified WAL frames past the
//	    cursor, in the on-disk wire format (durable.ScanFrames on the
//	    follower decodes them with the same checks recovery applies).
//	    Each poll refreshes the follower's retention pin.  An empty
//	    200 after the wait window is the idle heartbeat; 410
//	    compacted means the cursor predates the retained history
//	    (re-bootstrap); 409 diverged means the cursor is past the
//	    leader's durable end (the histories split — wipe and
//	    re-bootstrap).
//
// Correctness rests on two PR 9 facts: every semantics is a
// deterministic fixpoint of the program over the EDB, so shipping the
// committed EDB batches in order reconstructs bit-exact derived state;
// and replay is idempotent per fact, so a follower whose snapshot is
// newer than its cursor can replay the overlap harmlessly.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ast"
	"repro/internal/durable"
)

// Replication wire headers.
const (
	HdrReplicaSeq        = "X-Replica-Seq"
	HdrReplicaOff        = "X-Replica-Off"
	HdrReplicaNextSeq    = "X-Replica-Next-Seq"
	HdrReplicaNextOff    = "X-Replica-Next-Off"
	HdrReplicaRecords    = "X-Replica-Records"
	HdrReplicaLagRecords = "X-Replica-Lag-Records"
	HdrReplicaLagBytes   = "X-Replica-Lag-Bytes"
	HdrReplicaProgram    = "X-Replica-Program"
	HdrReplicaSemantics  = "X-Replica-Semantics"
	HdrLeaderAddr        = "X-Leader-Addr"
)

// maxWALChunk bounds one /v1/replica/wal response body.  Well under
// the HTTP server's write timeout even on slow links.
const maxWALChunk = 4 << 20

// defaultPollWait is the long-poll window when the request does not
// say; capped so the response always beats the server's 60s write
// timeout.
const (
	defaultPollWait = 20 * time.Second
	maxPollWait     = 25 * time.Second
)

// ProgramIdentity fingerprints a program for the replication
// divergence check: followers refuse to apply a leader's WAL unless
// the program text and semantics match their own, the same version-
// skew rejection recovery applies to foreign data dirs.
func ProgramIdentity(prog *ast.Program) string {
	sum := sha256.Sum256([]byte(prog.String()))
	return hex.EncodeToString(sum[:])
}

// SetReplicaHooks registers the follower loop's metrics provider and
// promotion callback.  Safe for concurrent use with /v1/metrics.
func (s *Server) SetReplicaHooks(stats func() *ReplicaMetrics, promote func()) {
	s.hookMu.Lock()
	s.repStats = stats
	s.onPromote = promote
	s.hookMu.Unlock()
}

// Promote flips a follower writable: the registered promotion hook
// runs first (stopping the apply loop, so a late leader record can
// never land after a local write), then updates open.  Idempotent.
func (s *Server) Promote() {
	s.hookMu.Lock()
	h := s.onPromote
	s.onPromote = nil
	s.hookMu.Unlock()
	if h != nil {
		h()
	}
	s.readOnly.Store(false)
}

// identityHeaders stamps the program/semantics fingerprint every
// replica response carries.
func (s *Server) identityHeaders(w http.ResponseWriter) {
	w.Header().Set(HdrReplicaProgram, ProgramIdentity(s.prog))
	w.Header().Set(HdrReplicaSemantics, s.cur.Load().Sem.String())
}

// handleReplicaSnapshot streams the current checkpoint to a
// bootstrapping follower.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.dur == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "replication requires a durable leader (run with -data)")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "missing follower id")
		return
	}
	// Pin before opening: the cursor names the first WAL position NOT
	// covered by every snapshot installed from here on, and the pin
	// keeps its segment alive until the follower's first poll.
	c := s.dur.store.SnapshotCursor(id)
	f, err := s.dur.store.OpenSnapshot()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
		return
	}
	defer f.Close()
	s.identityHeaders(w)
	w.Header().Set(HdrReplicaSeq, strconv.FormatUint(c.Seq, 10))
	w.Header().Set(HdrReplicaOff, strconv.FormatInt(c.Off, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f)
}

// handleReplicaWAL long-polls framed records past the follower's
// cursor.
func (s *Server) handleReplicaWAL(w http.ResponseWriter, r *http.Request) {
	if s.dur == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "replication requires a durable leader (run with -data)")
		return
	}
	q := r.URL.Query()
	c, err := durable.ParseCursor(q.Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	id := q.Get("id")
	wait := defaultPollWait
	if ws := q.Get("wait"); ws != "" {
		secs, err := strconv.Atoi(ws)
		if err != nil || secs < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad wait %q", ws))
			return
		}
		wait = time.Duration(secs) * time.Second
	}
	if wait > maxPollWait {
		wait = maxPollWait
	}
	store := s.dur.store
	deadline := time.Now().Add(wait)
	for {
		// Grab the notify channel BEFORE reading: an append that lands
		// between the read and the wait still wakes us.
		notify := store.AppendNotify()
		data, next, n, err := store.ReadWAL(c, maxWALChunk)
		switch {
		case errors.Is(err, durable.ErrCompacted):
			writeError(w, http.StatusGone, CodeCompacted,
				fmt.Sprintf("cursor %v predates the retained WAL history; re-bootstrap from the snapshot", c))
			return
		case errors.Is(err, durable.ErrAhead):
			writeError(w, http.StatusConflict, CodeDiverged,
				fmt.Sprintf("cursor %v is past the leader's durable history", c))
			return
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
			return
		}
		// Pin only after a read accepted the cursor: pins never move
		// back, so a rejected cursor past the log would strand the
		// follower's pin above every segment it still needs.
		store.Pin(id, next.Seq)
		if n > 0 || !time.Now().Before(deadline) {
			lagRecs, lagBytes := store.LagFrom(next)
			s.identityHeaders(w)
			w.Header().Set(HdrReplicaNextSeq, strconv.FormatUint(next.Seq, 10))
			w.Header().Set(HdrReplicaNextOff, strconv.FormatInt(next.Off, 10))
			w.Header().Set(HdrReplicaRecords, strconv.Itoa(n))
			w.Header().Set(HdrReplicaLagRecords, strconv.FormatInt(lagRecs, 10))
			w.Header().Set(HdrReplicaLagBytes, strconv.FormatInt(lagBytes, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			w.Write(data)
			return
		}
		c = next // a segment-boundary advance with no data yet
		select {
		case <-notify:
		case <-time.After(time.Until(deadline)):
		case <-r.Context().Done():
			return
		}
	}
}

// handleReplicaPromote flips a follower writable.
func (s *Server) handleReplicaPromote(w http.ResponseWriter, _ *http.Request) {
	if !s.readOnly.Load() {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "not a follower")
		return
	}
	s.Promote()
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: true, Generation: s.cur.Load().Gen})
}
