// Package replica is the follower side of WAL log-shipping
// replication: bootstrap from the leader's checkpoint, then tail its
// WAL and apply every committed batch through the local maintainer.
//
// Protocol (leader side in internal/server/replica.go):
//
//	bootstrap  GET /v1/replica/snapshot streams the leader's current
//	           checkpoint; the response headers carry the WAL cursor
//	           to resume from (pinned on the leader so compaction
//	           cannot race the download).  The image is installed as
//	           the local data dir's snapshot (durable.InstallSnapshot),
//	           so the follower's own recovery path — including the
//	           program/semantics version-skew rejection — restores it
//	           at boot.
//	tail       GET /v1/replica/wal long-polls checksum-verified frames
//	           past the cursor.  Each batch is applied through the
//	           local maintainer (which logs it to the follower's own
//	           WAL and checkpoints on the usual triggers), then the
//	           cursor file is atomically advanced.  The cursor is
//	           persisted AFTER the apply: a crash between the two
//	           re-applies the overlap, which is idempotent under the
//	           log's last-op-wins set semantics.
//	recover    on restart, local recovery rebuilds everything applied
//	           so far and the tail resumes from the persisted cursor —
//	           incremental catch-up, no re-bootstrap.
//
// Because every semantics is a deterministic fixpoint of the program
// over the EDB, applying the leader's committed EDB batches in order
// reconstructs bit-exact derived state; nothing but the EDB log is
// shipped.
//
// Failure handling: network errors reconnect with jittered backoff
// (100 ms doubling to 5 s);
// 410 compacted (the leader evicted our retention pin) and 409
// diverged (our cursor is past the leader's durable history) are
// terminal for the process — Run returns ErrCompacted/ErrDiverged,
// and the next boot's Bootstrap wipes the data dir and re-bootstraps
// from a fresh snapshot.
package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/server"
)

// Reconnect backoff after a failed poll: starts at minBackoff, doubles
// per consecutive failure, capped at maxBackoff.
const (
	minBackoff = 100 * time.Millisecond
	maxBackoff = 5 * time.Second
)

// Terminal tail errors: both mean the local history can no longer be
// advanced record-by-record and the process must restart, letting
// Bootstrap wipe the data dir and start over from a fresh snapshot.
var (
	// ErrCompacted reports that the leader no longer retains the WAL
	// segment at our cursor (the bounded-lag policy evicted our pin).
	ErrCompacted = errors.New("replica: leader compacted our cursor; wipe and re-bootstrap")
	// ErrDiverged reports a cursor past the leader's durable history or
	// a program/semantics identity mismatch — the histories split.
	ErrDiverged = errors.New("replica: history diverged from the leader; wipe and re-bootstrap")
)

// Config shapes one follower.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://host:4040").
	Leader string
	// DataDir is the follower's own durable directory: the
	// bootstrapped snapshot, its local WAL, and the cursor file (which
	// also holds the follower's id for leader-side retention pinning,
	// generated at first bootstrap).
	DataDir string
	// Program and Semantics are the local identity (the leader's
	// response headers must match, or the tail stops with ErrDiverged).
	Program   string
	Semantics string
	// PollWait is the long-poll window requested from the leader.
	// 0 means 20s (the leader caps at 25s).  Per-request timeouts are
	// derived from it.
	PollWait time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.PollWait <= 0 {
		c.PollWait = 20 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// cursorState is the follower cursor file (durable.LoadCursor): where
// in the LEADER's WAL the follower has applied through, plus the
// stable follower id used for retention pinning.
type cursorState struct {
	cur durable.Cursor
	id  string
}

func loadCursor(dir string) (st cursorState, ok bool, err error) {
	st.cur, st.id, ok, err = durable.LoadCursor(dir)
	return st, ok, err
}

// checkIdentity compares a leader response's program/semantics headers
// against the local identity.
func checkIdentity(cfg *Config, h http.Header) error {
	if p := h.Get(server.HdrReplicaProgram); p != "" && cfg.Program != "" && p != cfg.Program {
		return fmt.Errorf("%w: leader runs a different program", ErrDiverged)
	}
	if sem := h.Get(server.HdrReplicaSemantics); sem != "" && cfg.Semantics != "" && sem != cfg.Semantics {
		return fmt.Errorf("%w: leader runs %s semantics, not %s", ErrDiverged, sem, cfg.Semantics)
	}
	return nil
}

// Bootstrap ensures cfg.DataDir holds a state the leader's WAL can be
// tailed onto: an existing cursor that the leader still serves is kept
// (incremental catch-up across restarts); anything else — no local
// state, an evicted cursor, a diverged history — wipes the dir and
// downloads a fresh snapshot.  Returns whether a fresh bootstrap
// happened.  Call before opening the data dir with server.NewWith.
func Bootstrap(cfg Config) (fresh bool, err error) {
	cfg = cfg.withDefaults()
	st, ok, err := loadCursor(cfg.DataDir)
	if err == nil && ok && !durable.HasSnapshot(cfg.DataDir) {
		ok = false // half-wiped dir: re-bootstrap
	}
	if err == nil && ok {
		// Probe: does the leader still serve our cursor?
		resp, perr := pollWAL(context.Background(), &cfg, st, 0)
		if perr == nil {
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				if idErr := checkIdentity(&cfg, resp.Header); idErr != nil {
					return false, idErr
				}
				return false, nil // resume incrementally
			case http.StatusGone, http.StatusConflict:
				cfg.Logf("replica: leader no longer serves cursor %v (%d); re-bootstrapping", st.cur, resp.StatusCode)
			default:
				return false, fmt.Errorf("replica: leader probe: unexpected status %d", resp.StatusCode)
			}
		} else {
			return false, fmt.Errorf("replica: leader unreachable during bootstrap probe: %w", perr)
		}
	}

	if err := durable.Reset(cfg.DataDir); err != nil {
		return false, err
	}
	id := st.id
	if id == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return false, err
		}
		id = "f-" + hex.EncodeToString(b[:])
	}

	u := fmt.Sprintf("%s/v1/replica/snapshot?id=%s", strings.TrimRight(cfg.Leader, "/"), url.QueryEscape(id))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, fmt.Errorf("replica: snapshot download: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("replica: snapshot download: status %d", resp.StatusCode)
	}
	if err := checkIdentity(&cfg, resp.Header); err != nil {
		return false, err
	}
	seq, err := strconv.ParseUint(resp.Header.Get(server.HdrReplicaSeq), 10, 64)
	if err != nil {
		return false, fmt.Errorf("replica: bad %s header", server.HdrReplicaSeq)
	}
	off, err := strconv.ParseInt(resp.Header.Get(server.HdrReplicaOff), 10, 64)
	if err != nil {
		return false, fmt.Errorf("replica: bad %s header", server.HdrReplicaOff)
	}

	if err := durable.InstallSnapshot(cfg.DataDir, resp.Body); err != nil {
		return false, err
	}
	if err := durable.SaveCursor(cfg.DataDir, durable.Cursor{Seq: seq, Off: off}, id); err != nil {
		return false, err
	}
	cfg.Logf("replica: bootstrapped from %s at cursor %d,%d", cfg.Leader, seq, off)
	return true, nil
}

// pollWAL issues one /v1/replica/wal long-poll.
func pollWAL(ctx context.Context, cfg *Config, st cursorState, wait time.Duration) (*http.Response, error) {
	u := fmt.Sprintf("%s/v1/replica/wal?from=%s&id=%s&wait=%d",
		strings.TrimRight(cfg.Leader, "/"), url.QueryEscape(st.cur.String()),
		url.QueryEscape(st.id), int(wait/time.Second))
	rctx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// The cancel travels with the body: callers just Close it.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// Metrics is the follower loop's telemetry, rendered into the
// /v1/metrics replica block via Follower.Metrics.
type Metrics struct {
	appliedSeq     atomic.Uint64
	appliedOff     atomic.Int64
	appliedRecords atomic.Int64
	appliedBytes   atomic.Int64
	lagRecords     atomic.Int64
	lagBytes       atomic.Int64
	lastCaughtUp   atomic.Int64 // unix nanos of the last lag==0 poll
	reconnects     atomic.Int64
	bootstraps     atomic.Int64
}

// Follower tails the leader's WAL and applies each batch locally.
type Follower struct {
	cfg   Config
	st    cursorState
	apply func(ins, del []incr.Fact) error
	met   Metrics
}

// New builds a follower over a bootstrapped data dir.  apply is called
// for every shipped batch, in leader commit order, from a single
// goroutine (typically (*server.Server).Update, which also logs the
// batch to the follower's own WAL).
func New(cfg Config, apply func(ins, del []incr.Fact) error) (*Follower, error) {
	cfg = cfg.withDefaults()
	st, ok, err := loadCursor(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("replica: %s has no cursor file; run Bootstrap first", cfg.DataDir)
	}
	f := &Follower{cfg: cfg, st: st, apply: apply}
	f.met.appliedSeq.Store(st.cur.Seq)
	f.met.appliedOff.Store(st.cur.Off)
	f.met.lastCaughtUp.Store(time.Now().UnixNano())
	return f, nil
}

// MarkBootstrapped records that this process performed a fresh
// bootstrap (Bootstrap returned fresh=true).
func (f *Follower) MarkBootstrapped() { f.met.bootstraps.Add(1) }

// Metrics renders the current replica telemetry.
func (f *Follower) Metrics() *server.ReplicaMetrics {
	m := &server.ReplicaMetrics{
		Leader:         f.cfg.Leader,
		AppliedSeq:     f.met.appliedSeq.Load(),
		AppliedOffset:  f.met.appliedOff.Load(),
		AppliedRecords: f.met.appliedRecords.Load(),
		AppliedBytes:   f.met.appliedBytes.Load(),
		LagRecords:     f.met.lagRecords.Load(),
		LagBytes:       f.met.lagBytes.Load(),
		Reconnects:     f.met.reconnects.Load(),
		Bootstraps:     f.met.bootstraps.Load(),
	}
	if m.LagRecords > 0 {
		m.LagMs = float64(time.Now().UnixNano()-f.met.lastCaughtUp.Load()) / float64(time.Millisecond)
	}
	return m
}

// Run tails the leader until ctx is cancelled (clean stop, e.g.
// promotion — returns nil) or a terminal condition: ErrCompacted,
// ErrDiverged, or a local apply failure.  Network errors reconnect
// with jittered exponential backoff.
func (f *Follower) Run(ctx context.Context) error {
	backoff := minBackoff
	for {
		if ctx.Err() != nil {
			return nil
		}
		resp, err := pollWAL(ctx, &f.cfg, f.st, f.cfg.PollWait)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			f.met.reconnects.Add(1)
			f.cfg.Logf("replica: leader poll failed (%v); retrying in %v", err, backoff)
			select {
			case <-time.After(backoff + time.Duration(mrand.Int63n(int64(backoff/2)+1))):
			case <-ctx.Done():
				return nil
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		err = f.handlePoll(resp)
		resp.Body.Close()
		if err != nil {
			if errors.Is(err, errRetry) {
				f.met.reconnects.Add(1)
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return nil
				}
				backoff = min(2*backoff, maxBackoff)
				continue
			}
			return err
		}
		backoff = minBackoff
	}
}

// errRetry marks a poll outcome worth retrying (leader restarting,
// transient 5xx).
var errRetry = errors.New("replica: transient leader error")

// handlePoll consumes one poll response: decode, apply, advance.
func (f *Follower) handlePoll(resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return ErrCompacted
	case http.StatusConflict:
		return ErrDiverged
	default:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w: status %d", errRetry, resp.StatusCode)
	}
	if err := checkIdentity(&f.cfg, resp.Header); err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%w: %v", errRetry, err)
	}
	payloads, err := durable.ScanFrames(data)
	if err != nil {
		// A torn body is a transport problem, not a history problem:
		// re-poll from the unchanged cursor.
		return fmt.Errorf("%w: %v", errRetry, err)
	}
	for _, p := range payloads {
		rec, err := durable.DecodeRecord(p)
		if err != nil {
			return fmt.Errorf("%w: %v", errRetry, err)
		}
		if err := f.apply(rec.Ins, rec.Del); err != nil {
			return fmt.Errorf("replica: applying leader batch at %v: %w", f.st.cur, err)
		}
	}
	next := f.st.cur
	if seq, err := strconv.ParseUint(resp.Header.Get(server.HdrReplicaNextSeq), 10, 64); err == nil {
		next.Seq = seq
	}
	if off, err := strconv.ParseInt(resp.Header.Get(server.HdrReplicaNextOff), 10, 64); err == nil {
		next.Off = off
	}
	if next != f.st.cur {
		f.st.cur = next
		if err := durable.SaveCursor(f.cfg.DataDir, f.st.cur, f.st.id); err != nil {
			return fmt.Errorf("replica: persisting cursor: %w", err)
		}
	}
	f.met.appliedSeq.Store(next.Seq)
	f.met.appliedOff.Store(next.Off)
	f.met.appliedRecords.Add(int64(len(payloads)))
	f.met.appliedBytes.Add(int64(len(data)))
	lagRecs, _ := strconv.ParseInt(resp.Header.Get(server.HdrReplicaLagRecords), 10, 64)
	lagBytes, _ := strconv.ParseInt(resp.Header.Get(server.HdrReplicaLagBytes), 10, 64)
	f.met.lagRecords.Store(lagRecs)
	f.met.lagBytes.Store(lagBytes)
	if lagRecs == 0 {
		f.met.lastCaughtUp.Store(time.Now().UnixNano())
	}
	return nil
}
