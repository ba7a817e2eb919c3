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
package engine

import (
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
	deltas, hints := insertDeltas(old, delta)
	return in.runParts(in.deltaTasks(deltas), cur, neg, hints, cur, po)
}

// ApplyDeltasFrontierParts is ApplyDeltasFrontier with the output split
// into po.NParts owner buckets — the partitioned round body of the
// incremental maintainer's propagation loops.
func (in *Instance) ApplyDeltasFrontierParts(pos, neg State, deltas map[string]Delta, against State, po PartsOpts) ([]State, FilterStats) {
	return in.runParts(in.deltaTasks(deltas), pos, neg, nil, against, po)
}

// runParts runs one partition-exchange pass: every derivation not in
// against routes into one of po.NParts owner buckets, and the
// per-worker buckets merge bucket-by-bucket into NParts states instead
// of one union.  Tuples of different buckets can never collide, so the
// bucket states are pairwise disjoint by construction.
func (in *Instance) runParts(tasks []evalTask, pos, neg State, hints map[string]int, against State, po PartsOpts) ([]State, FilterStats) {
	wos := in.runPool(tasks, pos, neg, runOpts{frontier: against, hints: hints, shard: true,
		nparts: po.NParts, workers: po.Workers, filters: po.Filters})
	return mergeWorkerParts(wos, po.NParts)
}

// mergeWorkerParts combines per-worker owner buckets into one state per
// bucket (set union across workers — two workers may both have derived
// a tuple that passed the frontier probe) and sums the filter tallies.
// Each worker's buckets are sized for its share of the hint (see
// newWorkerOut), so the first worker's grow to hold the union; the
// others are dropped as soon as their ids are copied.
func mergeWorkerParts(wos []*workerOut, nparts int) ([]State, FilterStats) {
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
