// queue.go — the group-commit update queue.
//
// Concurrent POST /v1/update callers used to contend on the maintainer
// mutex, paying one full incremental-maintenance pass each.  The queue
// turns that serialization into batching: callers enqueue their
// insert/delete batches and a single committer goroutine drains
// whatever has accumulated, coalesces it into one net EDB change, and
// runs ONE maintainer pass for the whole group.  Under load the pass
// cost is amortized over every waiting caller; when idle a lone update
// commits immediately (the drain finds nothing else and never waits).
//
// Correctness.  Jobs are coalesced in arrival order with last-op-wins
// per tuple, which is exactly the net effect of applying the jobs
// sequentially under set semantics: whatever the final operation on a
// tuple is, earlier inserts/deletes of the same tuple are shadowed by
// it.  A request whose own insert and delete lists conflict is
// rejected at admission (incr.Admit, 422), so a coalesced batch never
// contains a tuple on both sides.  If the merged pass still fails
// (e.g. two jobs disagree on the arity of a predicate the program does
// not mention), the committer falls back to applying the batch one job
// at a time, so one bad request cannot poison its neighbours.  Each
// caller is answered only after the snapshot containing its change is
// published — the same per-batch exactness guarantee the serialized
// path gave.
//
// Backpressure.  The queue holds 256 updates (queueDepth).  When it is
// full, POST /v1/update fails fast with 429 and Retry-After instead of
// accumulating unbounded goroutines — admission control, not buffering.
// After Close, updates fail with 503.
package server

import (
	"errors"
	"runtime"

	"repro/internal/incr"
)

// Queue admission errors, mapped to HTTP statuses by handleUpdate.
var (
	// ErrQueueFull is returned when the update queue is at capacity.
	ErrQueueFull = errors.New("server: update queue full")
	// ErrClosed is returned for updates after Close.
	ErrClosed = errors.New("server: closed")
	// ErrWALFailed is returned for updates after a WAL append failure
	// fenced the write path; reads keep serving the last durable state.
	ErrWALFailed = errors.New("server: WAL append failed; updates disabled until restart")
	// ErrNotLeader is returned for updates sent to a read-only
	// replication follower (503 not_leader over HTTP, with the leader's
	// address in X-Leader-Addr).
	ErrNotLeader = errors.New("server: read-only follower; send updates to the leader")
)

// updateJob is one enqueued update request.
type updateJob struct {
	ins, del []incr.Fact
	done     chan updateDone // buffered(1); the committer never blocks
}

// updateDone is the committer's answer to one job.
type updateDone struct {
	stats     *incr.UpdateStats
	gen       uint64
	coalesced int
	err       error
}

// EnqueueUpdate validates the request, submits it to the group-commit
// queue, and blocks until the committer has applied it and published a
// snapshot containing it.  Safe for any number of concurrent callers.
// Errors: ErrQueueFull (admission control), ErrClosed (after Close),
// or a validation/maintenance error for this request.
func (s *Server) EnqueueUpdate(ins, del []incr.Fact) (*incr.UpdateStats, uint64, int, error) {
	if s.readOnly.Load() {
		return nil, 0, 0, ErrNotLeader
	}
	if err := incr.Admit(s.idb, s.arity, ins, del); err != nil {
		return nil, 0, 0, err
	}
	if s.closed.Load() {
		return nil, 0, 0, ErrClosed
	}
	job := &updateJob{ins: ins, del: del, done: make(chan updateDone, 1)}
	select {
	case s.queue <- job:
		s.met.enqueued.Inc()
	default:
		s.met.rejected.Inc()
		return nil, 0, 0, ErrQueueFull
	}
	select {
	case d := <-job.done:
		return d.stats, d.gen, d.coalesced, d.err
	case <-s.qdone:
		// The committer exited; it may have answered just before.
		select {
		case d := <-job.done:
			return d.stats, d.gen, d.coalesced, d.err
		default:
			return nil, 0, 0, ErrClosed
		}
	}
}

// committer is the single goroutine that owns maintainer passes for
// queued updates: take one job, opportunistically drain whatever else
// has arrived, commit the group, and answer every caller.
func (s *Server) committer() {
	defer close(s.qdone)
	for {
		select {
		case job := <-s.queue:
			batch := s.gather(job)
			s.commit(batch)
		case <-s.qstop:
			// Fail whatever is still queued, then exit.
			for {
				select {
				case job := <-s.queue:
					job.done <- updateDone{err: ErrClosed}
				default:
					return
				}
			}
		}
	}
}

// gather collects the current group: the first job plus whatever is
// already queued, at most one queue's worth.  It never waits for more.
func (s *Server) gather(first *updateJob) []*updateJob {
	batch := []*updateJob{first}
	// Give concurrently-runnable callers one scheduling quantum to reach
	// the queue before the batch seals.  Without the yield, on a single
	// P the channel wake-up fast path (runnext) ping-pongs between the
	// committer and one caller, and a group never forms no matter how
	// many callers are waiting.
	runtime.Gosched()
	for len(batch) < queueDepth {
		select {
		case job := <-s.queue:
			batch = append(batch, job)
		default:
			return batch
		}
	}
	return batch
}

// commit applies one group.  A single job skips coalescing; a group is
// merged last-op-wins and applied in one maintainer pass, falling back
// to per-job application if the merged pass fails.
func (s *Server) commit(batch []*updateJob) {
	s.met.batches.Inc()
	s.met.coalesced.Add(int64(len(batch)))
	s.met.maxBatch.Max(int64(len(batch)))
	if len(batch) == 1 {
		job := batch[0]
		stats, snap, err := s.Update(job.ins, job.del)
		d := updateDone{stats: stats, err: err, coalesced: 1}
		if snap != nil {
			d.gen = snap.Gen
		}
		job.done <- d
		return
	}

	ins, del := coalesce(batch)
	stats, snap, err := s.Update(ins, del)
	if err != nil {
		// A conflict only expressible across jobs (e.g. inconsistent
		// arities of a non-program predicate): degrade to the exact
		// sequential semantics so only the offending jobs fail.
		for _, job := range batch {
			stats, snap, err := s.Update(job.ins, job.del)
			d := updateDone{stats: stats, err: err, coalesced: 1}
			if snap != nil {
				d.gen = snap.Gen
			}
			job.done <- d
		}
		return
	}
	for _, job := range batch {
		job.done <- updateDone{stats: stats, gen: snap.Gen, coalesced: len(batch)}
	}
}

// coalesce merges a group of jobs into one net insert/delete pair:
// jobs are walked in arrival order and the last operation on each
// tuple wins — the net effect of applying the jobs sequentially.
func coalesce(batch []*updateJob) (ins, del []incr.Fact) {
	type op struct {
		fact  incr.Fact
		isDel bool
	}
	last := make(map[string]*op)
	order := make([]string, 0, len(batch)) // deterministic output order
	record := func(f incr.Fact, isDel bool) {
		k := f.Key()
		if o, ok := last[k]; ok {
			o.isDel = isDel
			return
		}
		last[k] = &op{fact: f, isDel: isDel}
		order = append(order, k)
	}
	for _, job := range batch {
		// Within one job deletes and inserts are disjoint (validated at
		// admission), so their relative order is immaterial.
		for _, f := range job.del {
			record(f, true)
		}
		for _, f := range job.ins {
			record(f, false)
		}
	}
	for _, k := range order {
		if o := last[k]; o.isDel {
			del = append(del, o.fact)
		} else {
			ins = append(ins, o.fact)
		}
	}
	return ins, del
}

// Close stops the committer: queued-but-uncommitted jobs and all later
// updates fail with ErrClosed (503 over HTTP).  Reads keep working
// from the last published snapshot.  With durability on, Close first
// waits out any in-flight background checkpoint (closing the store
// mid-install would abandon a half-written snapshot and break the
// "everything durable when Close returns" contract), then flushes and
// closes the WAL after the committer drains, so every acknowledged
// batch is on disk when Close returns.  Safe to call more than once.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.qstop)
	}
	<-s.qdone
	if s.dur != nil {
		s.dur.ckptWG.Wait()
		s.mu.Lock()
		s.dur.store.Close()
		s.mu.Unlock()
	}
}
