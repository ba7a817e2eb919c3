// serve.go — one run of a daemon workload: setup, warm-up, load,
// verify, recovery, teardown.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runEnv is where a run finds the daemon binary and keeps its files.
type runEnv struct {
	serveBin string
	runDir   string // scratch for generated inputs, data dirs and logs
	outDir   string // span files
}

// serveRun is the state of one daemon-workload run.
type serveRun struct {
	env       *runEnv
	spec      *serveSpec
	seed      int64
	traced    bool
	windowOps int

	boot   bootConfig
	d      *daemon
	t      *target
	ops    []op // warm-up window, then the load windows
	recov  []op // the recovery phase's single-fact updates
	state  *edb // the harness's own copy of the EDB
	rec    *recorder
	gen    uint64   // last acknowledged generation
	spans  *spanLog // traced run only
	setups []time.Duration

	windows    []window
	recoveries []time.Duration
	peakRSSMB  float64
	attempted  int
	failed     int
	firstErr   error
	phase      [4]time.Duration // wall time of setup, load, verify, recovery
}

// fail counts n failed operations, of which first is the first.
func (r *serveRun) fail(n int, first error) {
	if n == 0 {
		return
	}
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = first
	}
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: %v\n", first)
}

func (r *serveRun) counts() map[string]int {
	counts := map[string]int{}
	for pred, rel := range r.spec.model(r.state) {
		counts[pred] = rel.count()
	}
	return counts
}

// generate makes the run's inputs: the initial EDB and every op the run
// will send, in the order it sends them.  The toggle pool is walked once
// through all of them, so an update's inserts are absent and its deletes
// present only if nothing is generated that is not sent: the window a
// single connection sends exists in the traced run only, and the
// recovery updates are generated after it.
func (r *serveRun) generate() *generator {
	g := newGenerator(r.spec, r.seed)
	windows := 1 + loadWindows
	if r.traced {
		windows++
	}
	r.ops = g.ops(r.windowOps * windows)
	r.recov = g.singleUpdates(recoveryCycles * recoverySuffix)
	r.state = newEDB(r.spec.n, g.graph)
	return g
}

// setup is everything before the first recorded window: generate the
// inputs, build the oracle's initial model, cold-boot the daemon on an
// empty data dir, wait until it serves the oracle's relation counts,
// and run the unrecorded warm-up window.
func (r *serveRun) setup() error {
	start := time.Now()
	g := r.generate()
	if r.spec.checkInputs != nil {
		if err := r.spec.checkInputs(adjacency(r.spec.n, g.graph)); err != nil {
			return err
		}
	}

	r.boot = bootConfig{
		bin:       r.env.serveBin,
		program:   filepath.Join(r.env.runDir, "program.dl"),
		facts:     filepath.Join(r.env.runDir, "facts.dl"),
		semantics: r.spec.semantics,
		dataDir:   filepath.Join(r.env.runDir, "data"),
		logPath:   filepath.Join(r.env.runDir, "serve.log"),
		extra:     r.spec.serveFlags,
	}
	if err := os.WriteFile(r.boot.program, []byte(r.spec.program), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(r.boot.facts, []byte(g.factsFile()), 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(r.boot.dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.boot.dataDir, 0o755); err != nil {
		return err
	}

	d, err := startDaemon(r.boot)
	if err != nil {
		return err
	}
	r.d = d
	_, st, err := d.waitServing(r.counts(), nil)
	if err != nil {
		return err
	}
	r.gen = st.Generation
	r.t = newTarget(d.base)
	r.rec = &recorder{n: r.spec.n}
	r.t.runWindow(r.ops, 0, r.windowOps, r.rec, nil)
	r.setups = append(r.setups, time.Since(start))
	return nil
}

// stop ends the current daemon, noting its peak RSS first.
func (r *serveRun) stop(graceful bool) {
	if r.d == nil {
		return
	}
	if mb, err := r.d.peakRSSMB(); err == nil && mb > r.peakRSSMB {
		r.peakRSSMB = mb
	}
	r.t.close()
	if graceful {
		r.d.terminate()
	} else {
		r.d.kill()
	}
	r.d = nil
}

// load runs the recorded windows.
func (r *serveRun) load(windows int) {
	for w := 0; w < windows; w++ {
		lo := (1 + w) * r.windowOps
		r.windows = append(r.windows, r.t.runWindow(r.ops, lo, lo+r.windowOps, r.rec, nil))
	}
}

// verify checks every reply of warm-up and load, then every relation
// the daemon publishes, against the oracle.
func (r *serveRun) verify(windows int) {
	r.attempted += r.windowOps * (1 + windows)
	r.fail(int(r.rec.failed.Load()), r.rec.first)
	for c := 0; c < clients; c++ {
		for _, u := range r.rec.updates[c] {
			if u.gen > r.gen {
				r.gen = u.gen
			}
		}
	}
	r.fail(verifyReads(r.spec, r.state, r.ops, r.rec))
	r.attempted++
	if err := verifyRelations(r.spec, r.state, r.t); err != nil {
		r.fail(1, err)
	}
}

// reboot starts the daemon on the existing data dir and waits until it
// serves exactly the acknowledged state; it returns the time from exec
// to that first verified reply.
func (r *serveRun) reboot() (time.Duration, error) {
	d, err := startDaemon(r.boot)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.t = newTarget(d.base)
	took, _, err := d.waitServing(r.counts(), &r.gen)
	return took, err
}

// cleanRestart stops the daemon with SIGTERM, so cmd/serve writes its
// final checkpoint, and boots it again; that boot must replay nothing.
// It leaves the WAL suffix empty whatever the load phase left behind.
func (r *serveRun) cleanRestart() error {
	r.stop(true)
	if _, err := r.reboot(); err != nil {
		return err
	}
	m, err := r.d.scrapeMetrics()
	if err != nil {
		return err
	}
	if m.Durable.ReplayedRecords != 0 {
		return fmt.Errorf("restart after SIGTERM replayed %d records, want 0", m.Durable.ReplayedRecords)
	}
	return nil
}

// recoveryCycle is one deterministic kill -9 measurement.  It starts
// from an empty WAL suffix — after cleanRestart, or after the previous
// cycle's recovery boot, whose checkpoint absorbed what it replayed —
// sends exactly recoverySuffix sequential single-fact updates from one
// client, SIGKILLs the daemon, and times the restart, which must report
// having restored the snapshot and replayed exactly those records.
func (r *serveRun) recoveryCycle(cycle int) error {
	for i := cycle * recoverySuffix; i < (cycle+1)*recoverySuffix; i++ {
		o := &r.recov[i]
		r.attempted++
		// A record that inserts a present fact or deletes an absent one
		// replays with no maintenance work; the cycle would be cheaper
		// than the others.
		if err := r.state.changes(o.ins, o.del); err != nil {
			return fmt.Errorf("recovery update %d: %w", i, err)
		}
		gen, _, err := r.t.ask(o, r.spec.n)
		if err != nil {
			return err
		}
		r.state.apply(o.ins, o.del)
		r.gen = gen
	}
	r.stop(false)
	took, err := r.reboot()
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	m, err := r.d.scrapeMetrics()
	if err != nil {
		return err
	}
	if m.Durable.ReplayedRecords != recoverySuffix || !m.Durable.RecoveredSnapshot {
		return fmt.Errorf("restart after SIGKILL replayed %d records (want %d), recovered_snapshot=%t (want true)",
			m.Durable.ReplayedRecords, recoverySuffix, m.Durable.RecoveredSnapshot)
	}
	if err := verifyRelations(r.spec, r.state, r.t); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	r.recoveries = append(r.recoveries, took)
	return nil
}

// runServe runs one daemon workload end to end.  scale multiplies the
// frozen op count (1 at BENCHMARK.json's run_seconds).
func runServe(env *runEnv, spec *serveSpec, seed int64, scale float64, traced bool) (*result, error) {
	r := &serveRun{env: env, spec: spec, seed: seed, traced: traced, windowOps: scaleOps(spec.windowOps, scale)}
	defer func() { r.stop(false) }()

	if traced {
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		return r.tracedRun()
	}
	mark := time.Now()
	lap := func(i int) { r.phase[i], mark = time.Since(mark), time.Now() }
	for i := 0; i < setupRepeats; i++ {
		r.stop(false)
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	lap(0)
	r.load(loadWindows)
	lap(1)
	r.verify(loadWindows)
	lap(2)
	r.recovery()
	lap(3)
	return r.endToEnd(), nil
}

// recovery is the recovery phase: one clean restart, then the kill -9
// cycles.  It leaves the daemon stopped.
func (r *serveRun) recovery() {
	r.attempted++
	if err := r.cleanRestart(); err != nil {
		r.fail(1, fmt.Errorf("clean restart: %w", err))
	} else {
		for c := 0; c < recoveryCycles; c++ {
			r.attempted++
			if err := r.recoveryCycle(c); err != nil {
				r.fail(1, fmt.Errorf("recovery cycle %d: %w", c, err))
				break
			}
		}
	}
	r.stop(false)
}

// scaleOps scales a frozen op count by the run-length factor, keeping
// it a positive multiple of 100 so every window holds whole mix blocks.
func scaleOps(ops int, scale float64) int {
	n := int(float64(ops)*scale/100+0.5) * 100
	if n < 100 {
		n = 100
	}
	return n
}

// context records, next to the metrics, what they depend on outside the
// program and what went wrong.
func (r *serveRun) context(res *result) {
	res.note("data_dir_fs", fsType(r.env.runDir))
	res.note("fsync", fsyncPolicy)
	if r.firstErr != nil {
		res.note("first_failure", r.firstErr.Error())
	}
	if len(r.windows) > 0 {
		rates := make([]string, len(r.windows))
		for i, w := range r.windows {
			rates[i] = fmt.Sprintf("%.0f", w.throughput())
		}
		res.note("window_ops_s", strings.Join(rates, " "))
		res.note("phases_s", fmt.Sprintf("setup=%.1f load=%.1f verify=%.1f recovery=%.1f",
			r.phase[0].Seconds(), r.phase[1].Seconds(), r.phase[2].Seconds(), r.phase[3].Seconds()))
	}
}

// endToEnd folds the run into the gated metrics and the ungated
// end-to-end measurements.
func (r *serveRun) endToEnd() *result {
	res := newResult(r.attempted, r.failed)
	r.context(res)
	res.gated("setup_s", medianOf(r.setups, time.Duration.Seconds))
	res.gated("peak_rss_mb", r.peakRSSMB)
	res.setUngated("throughput_ops_s", "ops/s", medianOf(r.windows, func(w window) float64 { return w.throughput() }))
	res.setUngated("read_p50_ms", "ms", medianOf(r.windows, func(w window) float64 { return percentileMs(w.read, 0.50) }))
	res.setUngated("update_p50_ms", "ms", medianOf(r.windows, func(w window) float64 { return percentileMs(w.update, 0.50) }))
	res.setUngated("recovery_s", "s", medianOf(r.recoveries, time.Duration.Seconds))
	return res
}
