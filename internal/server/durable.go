// durable.go — persistence wiring: recovery at boot, the WAL append
// on the commit path, and background checkpointing.
//
// With Config.DataDir set, the server's lifecycle becomes
//
//	recover   Open the store; restore the snapshot into a ready
//	          maintainer (one fixpoint over its EDB, checked against
//	          its derived relations) and replay the WAL suffix
//	          through it; write a fresh checkpoint so the next boot
//	          replays nothing it does not have to.
//	serve     every maintainer pass appends its batch to the WAL
//	          before the snapshot is published and callers are
//	          answered: acknowledged implies logged (and, under
//	          -fsync=always, durable).
//	checkpoint after CheckpointBatches passes, the committer's caller
//	          rotates the WAL and captures a sealed O(1) state image
//	          under the maintainer lock, then streams it to disk off
//	          the commit path; the store atomically replaces the
//	          snapshot and deletes the covered segments.  Readers and
//	          the queue never stall.
//	shutdown  Close waits out any in-flight background checkpoint,
//	          then flushes and closes the WAL after the committer
//	          drains.  cmd/serve additionally calls CheckpointNow()
//	          on SIGTERM, so a clean restart replays nothing.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/relation"
)

// durState is the server's durability runtime: the store plus the
// counters behind the /v1/metrics durable block.
type durState struct {
	// store fences itself after a failed WAL append (store.Err): the
	// write path then fails with ErrWALFailed and checkpoints stop, so
	// the durable history can never silently omit a batch that
	// in-memory state or later log records build on.
	store *durable.Store

	// Checkpoint trigger, decremented only once a checkpoint is
	// durably on disk (a failed snapshot write retries at the next
	// commit instead of waiting out a fresh interval of traffic).
	sinceBatches atomic.Int64

	// Checkpoint concurrency control.  inFlight gates the async
	// trigger; ckptMu serializes the actual write (a synchronous
	// CheckpointNow can overlap the trigger's goroutine); ckptWG is
	// what Close waits on, so the store is never closed while a
	// snapshot install is still in flight.
	inFlight atomic.Bool
	ckptMu   sync.Mutex
	ckptWG   sync.WaitGroup

	appendErrors atomic.Int64
	checkpoints  atomic.Int64
	ckptErrors   atomic.Int64
	lastCkptNano atomic.Int64
	lastCkptDur  atomic.Int64 // nanoseconds

	// Recovery facts, fixed at boot.
	recoveredSnapshot bool
	replayedRecords   int
	recoveryDur       time.Duration
}

// recoverMaintainer builds the boot maintainer for a durable server:
// restore the snapshot if one exists (otherwise evaluate prog over the
// seed db), replay the WAL suffix, and checkpoint so the recovered
// history is compacted.  The seed db must be the same one every boot
// (cmd/serve reloads the same facts file); with a snapshot present it
// is ignored entirely.
func recoverMaintainer(prog *ast.Program, db *relation.Database, sem core.Semantics, cfg Config) (*incr.Maintainer, *durState, error) {
	st, info, err := durable.Open(cfg.DataDir, cfg.Fsync, 0)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var m *incr.Maintainer
	if cp := info.Checkpoint; cp != nil {
		if got, want := cp.Prog.String(), prog.String(); got != want {
			st.Close()
			return nil, nil, fmt.Errorf("server: data dir %s holds a different program; refusing to mix histories", cfg.DataDir)
		}
		if cp.Sem != sem {
			st.Close()
			return nil, nil, fmt.Errorf("server: data dir %s was written under %s semantics, not %s", cfg.DataDir, cp.Sem, sem)
		}
		m, err = incr.RestoreWith(cp, engine.Options{})
	} else {
		m, err = incr.New(prog, db, sem)
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	for i, rec := range info.Records {
		if _, err := m.Update(rec.Ins, rec.Del); err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("server: replaying WAL record %d/%d: %w", i+1, len(info.Records), err)
		}
	}
	d := &durState{
		store:             st,
		recoveredSnapshot: info.Checkpoint != nil,
		replayedRecords:   len(info.Records),
		recoveryDur:       time.Since(start),
	}
	// Compact at boot: a fresh dir gets its first snapshot (so the
	// durable history is self-contained from generation zero), a dir
	// with a replayed suffix gets one that absorbs it.
	if info.Checkpoint == nil || len(info.Records) > 0 {
		ckStart := time.Now()
		if err := st.WriteCheckpoint(m.Checkpoint()); err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("server: boot checkpoint: %w", err)
		}
		d.checkpoints.Add(1)
		d.lastCkptNano.Store(time.Now().UnixNano())
		d.lastCkptDur.Store(int64(time.Since(ckStart)))
	}
	return m, d, nil
}

// logBatch appends one committed batch to the WAL.  Called with s.mu
// held, after the maintainer pass succeeded and before the snapshot is
// published: the committer answers callers only after the batch is
// durable.  An append error fences the write path — the in-memory
// maintainer holds the batch but the log does not, so publishing it or
// logging anything after it would make recovery replay later records
// over a base the log never recorded.  The failed batch's caller gets
// the error (its acknowledgement would have lied), every later update
// fails with ErrWALFailed, and reads keep serving the last batch that
// was both logged and published.
func (s *Server) logBatch(ins, del []incr.Fact) error {
	if s.dur == nil {
		return nil
	}
	if _, err := s.dur.store.Append(&durable.Record{Ins: ins, Del: del}); err != nil {
		s.dur.appendErrors.Add(1)
		return fmt.Errorf("%w: %v", ErrWALFailed, err)
	}
	s.dur.sinceBatches.Add(1)
	return nil
}

// maybeCheckpointAsync starts a background checkpoint when the batch
// trigger has tripped.  Called after s.mu is released (the capture
// below retakes it); at most one checkpoint runs at a time.
func (s *Server) maybeCheckpointAsync() {
	d := s.dur
	if d == nil || d.sinceBatches.Load() < int64(s.cfg.CheckpointBatches) || d.store.Err() != nil {
		return
	}
	if !d.inFlight.CompareAndSwap(false, true) {
		return
	}
	d.ckptWG.Add(1)
	go func() {
		defer d.ckptWG.Done()
		defer d.inFlight.Store(false)
		d.ckptMu.Lock()
		defer d.ckptMu.Unlock()
		s.checkpointOnce()
	}()
}

// CheckpointNow synchronously rotates the WAL and writes a checkpoint,
// so the next boot replays nothing — the graceful-shutdown path
// cmd/serve runs on SIGTERM.  A no-op without a data dir or when no
// batch has been logged since the last checkpoint.  Serialized against
// the background trigger; safe for concurrent use.
func (s *Server) CheckpointNow() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.sinceBatches.Load() == 0 {
		return nil
	}
	return s.checkpointOnce()
}

// testCkptGate, when set (tests only), runs between the state capture
// and the snapshot write — the window Close must fence.
var testCkptGate func()

// checkpointOnce rotates the WAL and captures a sealed state image
// under the maintainer lock — O(1), the queue barely notices — then
// writes and installs the snapshot off the commit path.  Callers hold
// d.ckptMu.
func (s *Server) checkpointOnce() error {
	d := s.dur
	start := time.Now()

	s.mu.Lock()
	if d.store.Err() != nil {
		// The maintainer holds a batch the WAL rejected; a snapshot
		// taken now would make that unacknowledged batch durable.
		s.mu.Unlock()
		return ErrWALFailed
	}
	err := d.store.Rotate()
	var cp *incr.Checkpoint
	var covered int64
	if err == nil {
		cp = s.m.Checkpoint()
		covered = d.sinceBatches.Load()
	}
	s.mu.Unlock()

	if err == nil {
		if testCkptGate != nil {
			testCkptGate()
		}
		err = d.store.WriteCheckpoint(cp)
	}
	if err != nil {
		d.ckptErrors.Add(1)
		return err
	}
	// Subtract (rather than zero) what the snapshot covered, only now
	// that it is durable: appends that raced the write keep counting
	// toward the next trigger, and a failed attempt leaves the
	// counter tripped so the retry fires at the very next commit.
	d.sinceBatches.Add(-covered)
	d.checkpoints.Add(1)
	d.lastCkptNano.Store(time.Now().UnixNano())
	d.lastCkptDur.Store(int64(time.Since(start)))
	return nil
}

// durableMetrics renders the /v1/metrics durable block, or nil when
// persistence is off.
func (s *Server) durableMetrics(now time.Time) *DurableMetrics {
	d := s.dur
	if d == nil {
		return nil
	}
	st := d.store.Stats()
	dm := &DurableMetrics{
		FsyncPolicy:             st.FsyncPolicy,
		WALBytes:                st.WALBytes,
		WALRecords:              st.WALRecords,
		WALSegments:             st.WALSegments,
		AppendErrors:            d.appendErrors.Load(),
		Checkpoints:             d.checkpoints.Load(),
		CheckpointErrors:        d.ckptErrors.Load(),
		RecoveredSnapshot:       d.recoveredSnapshot,
		RecoveryReplayedRecords: d.replayedRecords,
		RecoveryDurMs:           float64(d.recoveryDur) / float64(time.Millisecond),
		CheckpointInFlight:      d.inFlight.Load(),
		RetainedSegments:        st.RetainedSegments,
		ReplicaPins:             st.Pins,
		ReplicaEvictions:        st.Evictions,
	}
	if nano := d.lastCkptNano.Load(); nano > 0 {
		dm.LastCheckpointAgeSec = now.Sub(time.Unix(0, nano)).Seconds()
		dm.LastCheckpointDurMs = float64(d.lastCkptDur.Load()) / float64(time.Millisecond)
	}
	return dm
}
