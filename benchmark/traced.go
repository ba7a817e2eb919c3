// traced.go — the traced run: the end-to-end load with the harness's
// spans switched on in every other window, the recovery phase, then the
// in-process ladder of layers.go.  It prints the per-layer metrics,
// among them the ungated end-to-end measurements as client.*, taken over
// the windows without spans, and writes the span file.
package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// overheadPct is what the harness's own spans cost.  Windows alternate
// untraced, traced, untraced, …; every traced window is compared with
// the untraced one before it and the one after it, and the median of
// those ratios is taken.  Comparing neighbours cancels drift over the
// run; the reading still carries the window-to-window noise, a few per
// cent, which is far more than a span costs.
func overheadPct(plain, traced []float64) float64 {
	var ratios []float64
	for i, t := range traced {
		ratios = append(ratios, t/plain[i])
		if i+1 < len(plain) {
			ratios = append(ratios, t/plain[i+1])
		}
	}
	return 100 * (median(ratios) - 1)
}

// tracedPairs is how many (untraced, traced) window pairs the traced
// run's load has; see overheadPct.
const tracedPairs = loadWindows / 2

func (r *serveRun) tracedRun() (*result, error) {
	res := newLayerResult()
	r.spans = newSpanLog()
	var plain, traced []window
	for w := 0; w < 2*tracedPairs; w++ {
		lo := (1 + w) * r.windowOps
		if w%2 == 0 {
			plain = append(plain, r.t.runWindow(r.ops, lo, lo+r.windowOps, r.rec, nil))
		} else {
			traced = append(traced, r.t.runWindow(r.ops, lo, lo+r.windowOps, r.rec, r.spans))
		}
	}
	lo := (1 + loadWindows) * r.windowOps
	single := r.t.runWindowWith(1, r.ops, lo, lo+r.windowOps, r.rec, nil)
	scrape, err := r.d.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	r.verify(2*tracedPairs + 1)
	r.recovery()

	seconds := func(w window) float64 { return w.elapsed.Seconds() }
	res.layer("trace.overhead_pct", overheadPct(mapSlice(plain, seconds), mapSlice(traced, seconds)))
	res.layer("client.throughput_ops_s", medianOf(plain, func(w window) float64 { return w.throughput() }))
	res.layer("client.recovery_s", medianOf(r.recoveries, time.Duration.Seconds))
	readP50 := medianOf(plain, func(w window) float64 { return percentileMs(w.read, 0.50) })
	updateP50 := medianOf(plain, func(w window) float64 { return percentileMs(w.update, 0.50) })
	res.layer("client.read_p50_ms", readP50)
	res.layer("client.update_p50_ms", updateP50)
	res.layer("client.read_p95_ms", medianOf(plain, func(w window) float64 { return percentileMs(w.read, 0.95) }))
	res.layer("client.update_p95_ms", medianOf(plain, func(w window) float64 { return percentileMs(w.update, 0.95) }))
	res.layer("client.read_p99_ms", medianOf(plain, func(w window) float64 { return percentileMs(w.read, 0.99) }))
	res.layer("client.update_p99_ms", medianOf(plain, func(w window) float64 { return percentileMs(w.update, 0.99) }))
	res.layer("client.read_samples_per_window", float64(len(plain[0].read)))
	res.layer("client.update_samples_per_window", float64(len(plain[0].update)))
	res.layer("client.window_iqr_pct", iqrPct(mapSlice(plain, func(w window) float64 { return w.throughput() })))
	res.layer("server.queue_mean_batch", scrape.Queue.MeanBatch)
	res.layer("server.queue_rejected", float64(scrape.Queue.Rejected))
	res.layer("server.rewrite_cache_hit_rate", scrape.RewriteCache.HitRate)
	res.layer("engine.filter_skip_rate", scrape.Engine.FilterRate)
	res.layer("durable.checkpoints", float64(scrape.Durable.Checkpoints))
	res.layer("durable.checkpoint_ms_last", scrape.Durable.LastCheckpointMs)

	g := newGenerator(r.spec, r.seed)
	l, err := newLadder(r.spec, g.factsFile(), r.ops[:ladderWindows*r.windowOps], filepath.Join(r.env.runDir, "ladder"), res, r.spans)
	if err != nil {
		return nil, err
	}
	if err := l.run(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// The ledger, from the outside in.  One connection's latency minus
	// the in-process handler's is what the wire and the client cost;
	// two connections' minus one's is what a client waits for the
	// other's maintainer pass and for a processor.
	v := func(name string) float64 { return res.Metrics[name].Value }
	oneRead := percentileMs(single.read, 0.50) * 1000
	oneUpdate := percentileMs(single.update, 0.50) * 1000
	res.layer("client.net_self_us", oneRead-l.handlerReadP50())
	res.layer("client.net_update_self_us", oneUpdate-v("server.http_update_us_p50"))
	res.layer("client.contention_read_us", readP50*1000-oneRead)
	res.layer("client.contention_update_us", updateP50*1000-oneUpdate)
	res.layer("client.unattributed_us", updateP50*1000-(v("incr.update_us_p50")+v("durable.append_us_p50")+
		v("incr.snapshot_us")+v("server.queue_self_us")+v("server.codec_update_self_us")+
		v("client.net_update_self_us")+v("client.contention_update_us")))

	if err := r.spans.write(filepath.Join(r.env.outDir, r.spec.name+".trace.json")); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	r.context(res)
	return res, nil
}

// tracedEvalBatch is eval-batch's traced run: passes with and without
// spans around parse, evaluate and check, and the engine-side layers on
// the suite's first case, the transitive closure.
func tracedEvalBatch(env *runEnv, suite []evalCase) (*result, error) {
	res := newLayerResult()
	spans := newSpanLog()
	var plain, traced []evalPass
	for i := 0; i < 2*tracedPairs; i++ {
		if i%2 == 0 {
			plain = append(plain, runPass(suite, nil))
		} else {
			traced = append(traced, runPass(suite, spans))
		}
	}
	for _, p := range append(plain, traced...) {
		res.Attempted += len(suite)
		res.Failed += p.failed
		if p.first != nil {
			res.note("first_failure", p.first.Error())
		}
	}
	res.Correct = res.Failed == 0
	seconds := func(p evalPass) float64 { return p.elapsed.Seconds() }
	res.layer("trace.overhead_pct", overheadPct(mapSlice(plain, seconds), mapSlice(traced, seconds)))
	res.layer("parser.parse_ms", medianOf(plain, func(p evalPass) float64 { return msOf(p.parse) }))
	res.layer("client.window_iqr_pct", iqrPct(mapSlice(plain, seconds)))
	res.layer("client.throughput_ops_s", medianOf(plain, func(p evalPass) float64 { return float64(len(suite)-p.failed) / p.elapsed.Seconds() }))
	res.layer("client.eval_s", medianOf(plain, func(p evalPass) float64 { return p.eval.Seconds() }))
	for _, sem := range []string{"lfp", "inflationary", "stratified", "wellfounded"} {
		res.layer("semantics.eval_ms."+sem, medianOf(plain, func(p evalPass) float64 { return msOf(p.bySem[sem]) }))
		res.layer("semantics.rounds."+sem, float64(plain[0].rounds[sem]))
		res.layer("semantics.tuples."+sem, float64(plain[0].tuples[sem]))
	}
	if err := engineLayers(&suite[0], res); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(env.outDir, evalBatchName+".trace.json")); err != nil {
		return nil, err
	}
	return res, nil
}
