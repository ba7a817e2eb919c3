// layers.go — the outside-in cost ledger.  The traced run replays the
// first windows of a workload's sequence in one goroutine through
// successively thicker stacks of each layer's public functions:
//
//	incr.Maintainer.Update + durable.Store.Append + Maintainer.Snapshot
//	server.Server.Update
//	server.Server.EnqueueUpdate
//	server.Server.Handler().ServeHTTP
//
// A layer's self time is its stack's median minus the stack below it.
// This file is the only one that names engine entry points, so an API
// change in internal/ is repaired here and nowhere else.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/semantics"
	"repro/internal/server"
)

// ladderWindows is how many windows of the sequence the ladder replays.
const ladderWindows = 2

// ladder holds what every stack of one traced run shares.
type ladder struct {
	spec  *serveSpec
	prog  *ast.Program
	db    *relation.Database // the initial EDB; stacks clone it
	sem   core.Semantics
	ops   []op
	upd   []update // the update ops of ops, as engine facts
	dir   string
	res   *result
	spans *spanLog

	// The hand-composed commit path stacks leaves for checkpointing.
	commit   *incr.Maintainer
	store    *durable.Store
	storeDir string
	// handlerP50 is the in-process handler's median time per span name.
	handlerP50 map[string]float64
}

// update is one update op in the engine's vocabulary.
type update struct {
	op       int
	ins, del []incr.Fact
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durQuantile is the q-quantile of a sample of durations.
func durQuantile(d []time.Duration, q float64) time.Duration {
	return time.Duration(percentileMs(d, q) * float64(time.Millisecond))
}

// medianRun times f reps times and returns the median.
func medianRun(reps int, f func() error) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start)
	}
	return durQuantile(d, 0.5), nil
}

func newLadder(spec *serveSpec, factsText string, ops []op, dir string, res *result, spans *spanLog) (*ladder, error) {
	l := &ladder{spec: spec, ops: ops, dir: dir, res: res, spans: spans}
	var err error
	if l.sem, err = core.ParseSemantics(spec.semantics); err != nil {
		return nil, err
	}
	parse, err := medianRun(5, func() error {
		if l.prog, err = parser.Program(spec.program); err != nil {
			return err
		}
		l.db, err = parser.Facts(factsText)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.layer("parser.parse_ms", msOf(parse))
	facts := func(es []edge) []incr.Fact {
		out := make([]incr.Fact, len(es))
		for i, e := range es {
			out[i] = incr.Fact{Pred: spec.edgePred, Args: []string{vname(e.a), vname(e.b)}}
		}
		return out
	}
	for i := range ops {
		if ops[i].isUpdate() {
			l.upd = append(l.upd, update{op: i, ins: facts(ops[i].ins), del: facts(ops[i].del)})
		}
	}
	return l, nil
}

// run measures every layer.
func (l *ladder) run() error {
	for _, step := range []func() error{
		l.evaluation, l.stacks, l.checkpointing, l.appendNoSync, l.replayBaseline, l.follower,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// evaluation times one fixpoint per semantics on the initial EDB, one Θ
// round at the workload's own fixpoint, and the demand-driven path.
func (l *ladder) evaluation() error {
	for _, name := range []string{"lfp", "inflationary", "stratified", "wellfounded"} {
		sem, err := core.ParseSemantics(name)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := core.EvalOpts(l.prog, l.db.Clone(), sem, semantics.SemiNaive, engine.Options{})
		if err != nil {
			continue // the semantics is not defined for this program
		}
		l.res.layer("semantics.eval_ms."+name, msOf(time.Since(start)))
		l.res.layer("semantics.rounds."+name, float64(res.Stats.Rounds))
		l.res.layer("semantics.tuples."+name, float64(res.Stats.Tuples))
		if sem == l.sem {
			in, err := engine.NewWith(l.prog, l.db.Clone(), engine.Options{})
			if err != nil {
				return err
			}
			round, _ := medianRun(5, func() error { in.Apply(res.State); return nil })
			l.res.layer("engine.theta_round_us", usOf(round))
		}
	}

	var q *op
	for i := range l.ops {
		if l.ops[i].kind == opQuery {
			q = &l.ops[i]
			break
		}
	}
	stratified, ok := core.QueryStrategy(l.sem, l.prog.Classify())
	if q == nil || !ok {
		return nil
	}
	pattern := make([]bool, len(q.pattern))
	for i, c := range q.pattern {
		pattern[i] = c >= 0
	}
	var rw *magic.Rewritten
	rewrite, err := medianRun(5, func() (err error) {
		rw, err = magic.Rewrite(l.prog, q.pred, pattern)
		return err
	})
	if err != nil {
		return err
	}
	l.res.layer("magic.rewrite_us", usOf(rewrite))
	constant := 0
	query, err := medianRun(21, func() error {
		mq := magic.Query{Pred: q.pred}
		for _, bound := range pattern {
			if bound {
				mq.Args = append(mq.Args, magic.Bound(vname(constant%l.spec.n)))
			} else {
				mq.Args = append(mq.Args, magic.Free())
			}
		}
		constant += 7
		_, err := semantics.QueryRewrittenOpts(rw, l.db.Clone(), mq, stratified, semantics.SemiNaive, engine.Options{})
		return err
	})
	if err != nil {
		return err
	}
	l.res.layer("semantics.query_rewritten_us", usOf(query))
	return nil
}

// stacks replays the sequence once through all four stacks at the same
// time: every update is applied, back to back, to the hand-composed
// commit path (maintain, log, publish) and to three servers through
// Server.Update, Server.EnqueueUpdate and the HTTP handler; reads go
// through the handler only.  All four hold the same state, so the same
// op costs each the same maintenance work and the per-op difference
// between two stacks is the thicker one's extra layer.  A thin layer's
// self time is the median of those differences: a queue hop of 20 us
// cannot be read off two separately measured medians of 7 ms.
func (l *ladder) stacks() error {
	build, err := medianRun(3, func() (err error) {
		l.commit, err = incr.NewWith(l.prog, l.db, l.sem, engine.Options{})
		return err
	})
	if err != nil {
		return err
	}
	l.res.layer("incr.new_ms", msOf(build))
	l.storeDir = filepath.Join(l.dir, "commit")
	if l.store, _, err = durable.Open(l.storeDir, durable.FsyncAlways, 0); err != nil {
		return err
	}
	var servers [3]*server.Server
	for i, name := range []string{"update", "enqueue", "http"} {
		if servers[i], err = l.newServer(name); err != nil {
			return err
		}
		defer servers[i].Close()
	}
	direct, queued, h := servers[0], servers[1], servers[2].Handler()

	var viaUpdate, viaQueue, queueSelf, codecSelf []time.Duration
	handler := map[string][]time.Duration{}
	var walBytes int64
	var changed, readBytes, reads int
	next := 0
	for i := range l.ops {
		o := &l.ops[i]
		if o.isUpdate() {
			u := l.upd[next]
			next++

			t0 := time.Now()
			st, err := l.commit.Update(u.ins, u.del)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			t1 := time.Now()
			changed += st.InsertedEDB + st.DeletedEDB + st.InsertedIDB + st.DeletedIDB
			n, err := l.store.Append(&durable.Record{Ins: u.ins, Del: u.del})
			if err != nil {
				return err
			}
			t2 := time.Now()
			l.commit.Snapshot()
			t3 := time.Now()
			walBytes += n
			root := l.spans.add("op.update", t0, t3, 0, i)
			l.spans.add("incr.update", t0, t1, root, i)
			l.spans.add("durable.append", t1, t2, root, i)
			l.spans.add("incr.snapshot", t2, t3, root, i)

			t0 = time.Now()
			if _, _, err := direct.Update(u.ins, u.del); err != nil {
				return err
			}
			dUpdate := time.Since(t0)
			viaUpdate = append(viaUpdate, dUpdate)

			t0 = time.Now()
			if _, _, _, err := queued.EnqueueUpdate(u.ins, u.del); err != nil {
				return err
			}
			dQueue := time.Since(t0)
			viaQueue = append(viaQueue, dQueue)
			queueSelf = append(queueSelf, dQueue-dUpdate)

			dHTTP, _, err := serveInProcess(h, o)
			if err != nil {
				return err
			}
			handler["http.update"] = append(handler["http.update"], dHTTP)
			codecSelf = append(codecSelf, dHTTP-dQueue)
			continue
		}
		d, size, err := serveInProcess(h, o)
		if err != nil {
			return err
		}
		handler[spanName(o)] = append(handler[spanName(o)], d)
		if o.kind != opStats { // a stats reply's uptime field changes length
			readBytes += size
			reads++
		}
	}

	p50 := func(d []time.Duration) float64 { return usOf(durQuantile(d, 0.5)) }
	self := l.spans.selfTimes() // of the composed commit path's spans
	l.res.layer("incr.update_us_p50", p50(self["incr.update"]))
	l.res.layer("incr.update_us_p95", usOf(durQuantile(self["incr.update"], 0.95)))
	l.res.layer("incr.changed_tuples", float64(changed))
	l.res.layer("durable.append_us_p50", p50(self["durable.append"]))
	l.res.layer("incr.snapshot_us", p50(self["incr.snapshot"]))
	l.res.layer("durable.wal_bytes_per_update", float64(walBytes)/float64(len(l.upd)))
	l.res.layer("server.update_us_p50", p50(viaUpdate))
	l.res.layer("server.enqueue_us_p50", p50(viaQueue))
	l.res.layer("server.queue_self_us", p50(queueSelf))
	l.res.layer("server.codec_update_self_us", p50(codecSelf))
	l.handlerP50 = map[string]float64{}
	for name, took := range handler {
		l.handlerP50[name] = p50(took)
		// http.query_magic is reported as server.http_query_magic_us_p50.
		l.res.layer("server."+strings.Replace(name, ".", "_", 1)+"_us_p50", l.handlerP50[name])
	}
	if reads > 0 {
		l.res.layer("server.response_bytes_per_read", float64(readBytes)/float64(reads))
	}
	relationProbes(l.commit.Snapshot().Rels, l.res)
	return nil
}

// serveInProcess sends one op through the handler without a network
// and returns the time it took and the size of the reply.
func serveInProcess(h http.Handler, o *op) (time.Duration, int, error) {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(start)
	if w.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("in-process %s %s: status %d: %s", o.method, o.path, w.Code, w.Body)
	}
	return d, w.Body.Len(), nil
}

// relationProbes times Has, Lookup and Add, per tuple, on the largest
// of rels.
func relationProbes(rels map[string]*relation.Relation, res *result) {
	var largest *relation.Relation
	for _, r := range rels {
		if largest == nil || r.Len() > largest.Len() {
			largest = r
		}
	}
	tuples := largest.Tuples()
	perTuple := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(tuples)) }
	has, _ := medianRun(5, func() error {
		for _, t := range tuples {
			largest.Has(t)
		}
		return nil
	})
	res.layer("relation.has_ns", perTuple(has))
	lookup, _ := medianRun(5, func() error {
		for _, t := range tuples {
			largest.Lookup(0, t[0])
		}
		return nil
	})
	res.layer("relation.lookup_ns", perTuple(lookup))
	add, _ := medianRun(5, func() error {
		fresh := relation.New(largest.Arity())
		for _, t := range tuples {
			fresh.Add(t)
		}
		return nil
	})
	res.layer("relation.add_ns", perTuple(add))
}

// engineLayers measures the layers under eval-batch on one of its
// cases: one Θ round at the case's fixpoint and the relation probes on
// its largest relation.
func engineLayers(c *evalCase, res *result) error {
	prog, err := parser.Program(c.program)
	if err != nil {
		return err
	}
	db, err := parser.Facts(c.facts)
	if err != nil {
		return err
	}
	fix, err := core.EvalOpts(prog, db, c.sem, semantics.SemiNaive, engine.Options{})
	if err != nil {
		return err
	}
	in, err := engine.NewWith(prog, db, engine.Options{})
	if err != nil {
		return err
	}
	round, _ := medianRun(5, func() error { in.Apply(fix.State); return nil })
	res.layer("engine.theta_round_us", usOf(round))
	relationProbes(fix.State, res)
	return nil
}

// checkpointing measures everything a checkpoint and a recovery do
// with the state the composed commit path of stacks left behind.
func (l *ladder) checkpointing() error {
	m, store, dir := l.commit, l.store, l.storeDir
	defer store.Close()
	encode, _ := medianRun(5, func() error {
		for _, u := range l.upd {
			durable.EncodeRecord(&durable.Record{Ins: u.ins, Del: u.del})
		}
		return nil
	})
	l.res.layer("durable.encode_record_ns", float64(encode.Nanoseconds())/float64(len(l.upd)))

	var cp *incr.Checkpoint
	capture, _ := medianRun(5, func() error { cp = m.Checkpoint(); return nil })
	l.res.layer("incr.checkpoint_capture_us", usOf(capture))

	snapFile := filepath.Join(l.dir, "snapshot.bin")
	write, err := medianRun(3, func() error {
		f, err := os.Create(snapFile)
		if err != nil {
			return err
		}
		if err := durable.WriteSnapshot(f, cp); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	l.res.layer("durable.snapshot_write_ms", msOf(write))
	onDisk, payload, err := snapshotSizes(snapFile)
	if err != nil {
		return err
	}
	l.res.layer("durable.snapshot_file_bytes", float64(onDisk))
	l.res.layer("durable.snapshot_bytes", float64(payload))
	var restored *incr.Checkpoint
	read, err := medianRun(3, func() error {
		f, err := os.Open(snapFile)
		if err != nil {
			return err
		}
		defer f.Close()
		restored, err = durable.ReadSnapshot(f)
		return err
	})
	if err != nil {
		return err
	}
	l.res.layer("durable.snapshot_read_ms", msOf(read))
	restore, err := medianRun(3, func() error {
		_, err := incr.RestoreWith(restored, engine.Options{})
		return err
	})
	if err != nil {
		return err
	}
	l.res.layer("incr.restore_ms", msOf(restore))

	install, err := medianRun(3, func() error {
		if err := store.Rotate(); err != nil {
			return err
		}
		return store.WriteCheckpoint(cp)
	})
	if err != nil {
		return err
	}
	l.res.layer("durable.checkpoint_install_ms", msOf(install))

	// What a boot after kill -9 opens: the checkpoint just installed
	// and a WAL suffix of recoverySuffix records.
	for i := 0; i < recoverySuffix; i++ {
		u := l.upd[i%len(l.upd)]
		if _, err := store.Append(&durable.Record{Ins: u.ins, Del: u.del}); err != nil {
			return err
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, rec, err := durable.Open(dir, durable.FsyncAlways, 0)
	if err != nil {
		return err
	}
	l.res.layer("durable.open_replay_ms", msOf(time.Since(start)))
	reopened.Close()
	if rec.Checkpoint == nil || len(rec.Records) != recoverySuffix {
		return fmt.Errorf("durable.Open found %d records, want %d, after a checkpoint", len(rec.Records), recoverySuffix)
	}
	return nil
}

// snapshotSizes returns a snapshot file's size and the size of the
// section stream inside its gzip envelope.  Only the second is an exact
// count: tuples are written in arena order, parallel workers emit them
// in an order that changes from run to run, and gzip's output depends
// on it; the sections' own length does not.
func snapshotSizes(path string) (onDisk, payload int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	const magicLen = 8 // "dlsnap01"
	if _, err := f.Seek(magicLen, io.SeekStart); err != nil {
		return 0, 0, err
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		return 0, 0, err
	}
	payload, err = io.Copy(io.Discard, zr)
	return info.Size(), payload, err
}

// appendNoSync repeats the appends with fsync off; the difference from
// the synced appends is what the fsync costs.
func (l *ladder) appendNoSync() error {
	store, _, err := durable.Open(filepath.Join(l.dir, "nosync"), durable.FsyncOff, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	var appends []time.Duration
	for _, u := range l.upd {
		start := time.Now()
		if _, err := store.Append(&durable.Record{Ins: u.ins, Del: u.del}); err != nil {
			return err
		}
		appends = append(appends, time.Since(start))
	}
	nosync := usOf(durQuantile(appends, 0.5))
	l.res.layer("durable.append_nosync_us_p50", nosync)
	l.res.layer("durable.fsync_us_p50", l.res.Metrics["durable.append_us_p50"].Value-nosync)
	return nil
}

// newServer builds an in-process durable server on a fresh data dir,
// configured as the daemon is.
func (l *ladder) newServer(name string) (*server.Server, error) {
	cfg := server.Config{DataDir: filepath.Join(l.dir, name), Fsync: durable.FsyncAlways}
	for i := 0; i+1 < len(l.spec.serveFlags); i += 2 {
		if l.spec.serveFlags[i] == "-checkpoint-every" {
			fmt.Sscan(l.spec.serveFlags[i+1], &cfg.CheckpointBatches)
		}
	}
	return server.NewWith(l.prog, l.db, l.sem, cfg)
}

// handlerReadP50 is the in-process handler's median read time weighted
// by the workload's read mix, in microseconds.
func (l *ladder) handlerReadP50() float64 {
	var sum, weight float64
	for i := range l.ops {
		if o := &l.ops[i]; !o.isUpdate() {
			sum += l.handlerP50[spanName(o)]
			weight++
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// replayBaseline maintains the win-move program under the inflationary
// semantics over the same updates: stage-log replay, the strategy a
// maintained well-founded semantics would build on.  Nothing end to end
// depends on it yet.
func (l *ladder) replayBaseline() error {
	if l.sem != core.WellFounded {
		return nil
	}
	m, err := incr.NewWith(l.prog, l.db, core.Inflationary, engine.Options{})
	if err != nil {
		return err
	}
	took := make([]time.Duration, 0, len(l.upd))
	for _, u := range l.upd {
		start := time.Now()
		if _, err := m.Update(u.ins, u.del); err != nil {
			return fmt.Errorf("op %d: %w", u.op, err)
		}
		took = append(took, time.Since(start))
	}
	l.res.layer("incr.update_replay_us_p50", usOf(durQuantile(took, 0.5)))
	return nil
}

// follower times a replica's bootstrap from a leader's checkpoint and
// its catch-up over the WAL the leader wrote since.  Followers are not
// in the end-to-end runs; this is the baseline for a later workload,
// measured on serve-write only.
func (l *ladder) follower() error {
	if l.spec.name != "serve-write" {
		return nil
	}
	leader, err := l.newServer("leader")
	if err != nil {
		return err
	}
	defer leader.Close()
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	half := len(l.upd) / 2
	for _, u := range l.upd[:half] {
		if _, _, err := leader.Update(u.ins, u.del); err != nil {
			return err
		}
	}
	if err := leader.CheckpointNow(); err != nil {
		return err
	}
	tail := l.upd[half:]
	for _, u := range tail {
		if _, _, err := leader.Update(u.ins, u.del); err != nil {
			return err
		}
	}

	dir := filepath.Join(l.dir, "follower")
	cfg := replica.Config{
		Leader: ts.URL, DataDir: dir, Program: server.ProgramIdentity(l.prog),
		Semantics: l.sem.String(), PollWait: time.Second,
	}
	start := time.Now()
	if _, err := replica.Bootstrap(cfg); err != nil {
		return err
	}
	l.res.layer("replica.bootstrap_ms", msOf(time.Since(start)))
	fsrv, err := server.NewWith(l.prog, relation.NewDatabase(), l.sem, server.Config{
		DataDir: dir, Fsync: durable.FsyncAlways, ReadOnly: true, LeaderAddr: ts.URL,
		CheckpointBatches: 1 << 30,
	})
	if err != nil {
		return err
	}
	defer fsrv.Close()
	fol, err := replica.New(cfg, func(ins, del []incr.Fact) error {
		_, _, err := fsrv.Update(ins, del)
		return err
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start = time.Now()
	go func() { done <- fol.Run(ctx) }()
	deadline := start.Add(60 * time.Second)
	for fol.Metrics().AppliedRecords < int64(len(tail)) {
		if time.Now().After(deadline) {
			cancel()
			<-done
			return fmt.Errorf("follower applied %d of %d records in 60s", fol.Metrics().AppliedRecords, len(tail))
		}
		time.Sleep(time.Millisecond)
	}
	caught := time.Since(start)
	cancel()
	<-done
	l.res.layer("replica.catchup_records_s", float64(len(tail))/caught.Seconds())
	if got, want := fsrv.Snapshot().Gen, leader.Snapshot().Gen; got != want {
		return fmt.Errorf("follower is at generation %d, the leader at %d", got, want)
	}
	return nil
}
