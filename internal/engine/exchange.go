// exchange.go — the engine half of partitioned evaluation.
//
// Partitioned evaluation (internal/partition) splits each semi-naive
// round across K concurrently-evaluating partitions: partition p drives
// the round with its own shard of the delta (the tuples whose TupleHash
// routes to p) while non-driver literals read the full shared states.
// Each partition's derivations are routed at emit time into K owner
// buckets by the same hash, so what crosses a partition boundary
// between rounds is exactly the bucket of tuples the receiving
// partition owns — the cross-partition delta exchange.
//
// The entry points here are the per-partition round bodies: they are
// ApplyDeltaSplitFrontier / ApplyDeltasFrontier with the single merged
// output replaced by NParts owner-bucket states, plus an optional Bloom
// prefilter over the accumulated state fronting the exact frontier
// probe (see evalCtx.filter; soundness is argued in relation/filter.go).
//
// The K knob follows the same conventions as Workers: a per-instance
// SetPartitions, a deprecated process-wide SetDefaultPartitions
// fallback, and Options.Partitions threaded through the higher layers.
// The prefilter is a Toggle like Frontier/Sharding, the ablation
// oracle being the exact-probe-only path.
package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// PartsOpts configures one partitioned exchange pass.
type PartsOpts struct {
	// NParts is the number of owner buckets (the partition count K).
	NParts int
	// Workers caps this pass's worker pool; 0 follows Workers().  The
	// partitioned driver splits the instance pool across the K
	// concurrently-evaluating partitions.
	Workers int
	// Filters, when non-nil, are per-predicate Bloom summaries of the
	// accumulated state the pass filters against; they front the exact
	// frontier probe on the emit path.
	Filters map[string]*relation.Filter
}

// FilterStats reports the emit-path prefilter telemetry of one pass:
// how many emissions consulted the filter and how many of those skipped
// the exact accumulated-state probe on a definitive "absent".
type FilterStats struct {
	Probes int64
	Skips  int64
}

// ApplyDeltaSplitFrontierParts is ApplyDeltaSplitFrontier with the
// output split into po.NParts owner buckets: bucket b holds exactly the
// genuinely-new tuples t with TupleHash(t) % NParts == b.  The buckets
// concatenate to exactly what ApplyDeltaSplitFrontier returns on the
// same inputs.
func (in *Instance) ApplyDeltaSplitFrontierParts(old, delta, cur, neg State, po PartsOpts) ([]State, FilterStats) {
	deltas := make(map[string]Delta, len(delta))
	hints := make(map[string]int, len(delta))
	for pred, d := range delta {
		deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: old[pred]}}
		if n := d.Len(); n > 0 {
			hints[pred] = n
		}
	}
	return in.applyPartsTasks(in.deltaTasks(deltas), cur, neg, hints, cur, po)
}

// ApplyDeltasFrontierParts is ApplyDeltasFrontier with the output split
// into po.NParts owner buckets — the partitioned round body of the
// incremental maintainer's propagation loops.
func (in *Instance) ApplyDeltasFrontierParts(pos, neg State, deltas map[string]Delta, against State, po PartsOpts) ([]State, FilterStats) {
	return in.applyPartsTasks(in.deltaTasks(deltas), pos, neg, nil, against, po)
}

// applyPartsTasks runs one partitioned pass, honoring the instance's
// frontier knob: with the frontier off, buckets are derived unfiltered
// and diffed per bucket afterwards — the same derive+Diff oracle the
// unpartitioned entry points fall back to (the prefilter only fronts
// the fused probe, so it is inert on this path).
func (in *Instance) applyPartsTasks(tasks []evalTask, pos, neg State, hints map[string]int, against State, po PartsOpts) ([]State, FilterStats) {
	if !in.FrontierEval() {
		parts, st := in.runTasksParts(tasks, pos, neg, runOpts{
			shard: true, hints: hints, nparts: po.NParts, workers: po.Workers})
		for b := range parts {
			parts[b] = diffAgainst(parts[b], against)
		}
		return parts, st
	}
	return in.runTasksParts(tasks, pos, neg, runOpts{
		frontier: against, hints: hints, shard: true,
		nparts: po.NParts, workers: po.Workers, filters: po.Filters})
}

// runTasksParts is runTasks for partition-exchange passes: every
// derivation routes into one of opts.nparts owner buckets, and the
// per-worker buckets merge bucket-by-bucket into nparts states instead
// of one union.  Tuples of different buckets can never collide, so the
// bucket states are pairwise disjoint by construction.
func (in *Instance) runTasksParts(tasks []evalTask, pos, neg State, opts runOpts) ([]State, FilterStats) {
	nw := opts.workers
	if nw <= 0 {
		nw = in.Workers()
	}
	if opts.shard && nw > len(tasks) && len(tasks) > 0 && in.Sharding() {
		tasks = in.expandShards(tasks, pos, nw)
	}
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 {
		wo := in.newWorkerOut(opts, 1)
		for _, t := range tasks {
			in.evalRule(t, pos, neg, wo, nil)
		}
		return in.mergeWorkerParts([]*workerOut{wo}, opts.nparts)
	}

	wos := make([]*workerOut, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			wo := in.newWorkerOut(opts, nw)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				in.evalRule(tasks[i], pos, neg, wo, nil)
			}
			wos[w] = wo
		}(w)
	}
	wg.Wait()
	return in.mergeWorkerParts(wos, opts.nparts)
}

// mergeWorkerParts combines per-worker owner buckets into one state per
// bucket (set union across workers — two workers may both have derived
// a tuple that passed the frontier probe) and sums the filter tallies.
// Each worker's buckets are sized for its share of the hint (see
// newWorkerOut), so the first worker's grow to hold the union; the
// others are dropped as soon as their ids are copied.
func (in *Instance) mergeWorkerParts(wos []*workerOut, nparts int) ([]State, FilterStats) {
	var st FilterStats
	for _, wo := range wos {
		st.Probes += wo.fprobes
		st.Skips += wo.fskips
	}
	out := make([]State, nparts)
	for b := range out {
		out[b] = make(State, len(wos[0].out))
	}
	for pred := range wos[0].out {
		for b := 0; b < nparts; b++ {
			m := wos[0].parts[pred][b]
			for _, wo := range wos[1:] {
				m.UnionWith(wo.parts[pred][b])
				wo.parts[pred][b] = nil
			}
			out[b][pred] = m
		}
	}
	return out, st
}

// defaultPartitions is the process-wide partition-count default applied
// to instances that never called SetPartitions, mirroring
// defaultWorkers; values ≤ 1 mean unpartitioned evaluation.
var defaultPartitions atomic.Int32

// SetDefaultPartitions sets the process-wide default partition count
// for instances without an explicit SetPartitions; n ≤ 1 restores
// single-instance evaluation.
//
// Deprecated: prefer Options.Partitions per call; this setter remains
// as the fallback the zero Options resolve to.
func SetDefaultPartitions(n int) {
	if n < 1 {
		n = 1
	}
	defaultPartitions.Store(int32(n))
}

// Partitions returns the effective partition count: the value set with
// SetPartitions, else the process default, else 1.
func (in *Instance) Partitions() int {
	if in.nparts > 0 {
		return in.nparts
	}
	if d := defaultPartitions.Load(); d > 1 {
		return int(d)
	}
	return 1
}

// SetPartitions fixes the partition count the semi-naive fixpoint loops
// split into; k ≤ 1 values other than 1 restore the default.
// Partitioned and unpartitioned evaluation produce identical states.
func (in *Instance) SetPartitions(k int) {
	if k < 0 {
		k = 0
	}
	in.nparts = k
}

// defaultExchangeFilterOff is the process-wide default for the exchange
// prefilter, on unless disabled.
var defaultExchangeFilterOff atomic.Bool

// SetDefaultExchangeFilter sets the process-wide default for instances
// without an explicit SetExchangeFilter call.  On by default.
//
// Deprecated: prefer Options.ExchangeFilter per call; this setter
// remains as the fallback a ToggleDefault resolves to.
func SetDefaultExchangeFilter(on bool) { defaultExchangeFilterOff.Store(!on) }

// SetExchangeFilter selects whether partitioned passes front the exact
// frontier probe with a Bloom summary of the accumulated state —
// bit-exact either way, the knob is the ablation baseline.
func (in *Instance) SetExchangeFilter(on bool) { in.exchFilter = ToggleOf(on) }

// ExchangeFilter reports the effective prefilter setting: the value set
// with SetExchangeFilter, else the process default, else on.
func (in *Instance) ExchangeFilter() bool {
	return in.exchFilter.Enabled(!defaultExchangeFilterOff.Load())
}
