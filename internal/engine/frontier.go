// frontier.go — dedup-at-emit derivation and intra-rule sharding.
//
// Every fixpoint loop unions each round's derivations into an
// accumulated state, and almost every derivation of a late round is a
// duplicate of what that state already holds.  The *Frontier entry
// points therefore filter every emission against the accumulated state
// at emit time (a read-only membership probe inside the compiled
// bind/check loop, see Relation.AddNotIn) and insert genuinely-new
// tuples straight into the per-predicate delta: the returned state IS
// the next delta, disjoint from the accumulated one, and callers union
// it back with UnionDisjoint.
//
// Intra-rule sharding keeps every worker busy when a round has fewer
// rule tasks than the pool has workers: a task's driver relation (the
// semi-naive delta, or the first planned literal of a full application)
// is split into arena-range shards of at least minShardSpan tuples, one
// task per shard, each restricted to its range.  The ranges partition
// the driving enumeration, so every derivation belongs to exactly one
// shard and the union of the shard outputs is exactly the unsharded
// output.  A pass under InlineFloor is never sharded: it runs on the
// calling goroutine.
package engine

import "repro/internal/relation"

// ApplyFrontier returns Θ(S̄) minus against: every emission already in
// against is dropped at emit time.  With against = s it computes the
// tuples one Θ application adds to s — the inflationary delta — in a
// single pass.
func (in *Instance) ApplyFrontier(s, against State) State {
	return in.ApplySplitFrontier(s, s, against)
}

// ApplySplitFrontier is ApplySplit filtered against an accumulated
// state: it returns exactly ApplySplit(pos, neg).Diff(against), without
// materializing the intermediate state.
func (in *Instance) ApplySplitFrontier(pos, neg, against State) State {
	return in.runTasks(in.fullTasks(), pos, neg, runOpts{frontier: against, shard: true})
}

// ApplyDeltaSplitFrontier is the semi-naive round of the frontier
// contract: it returns exactly ApplyDeltaSplit(old, delta, cur,
// neg).Diff(cur) — the genuinely-new tuples of the round — inserting
// them straight into the per-predicate delta it returns.  Output
// relations are pre-sized from the incoming delta's cardinality (the
// best available estimate of the next round's).
func (in *Instance) ApplyDeltaSplitFrontier(old, delta, cur, neg State) State {
	deltas, hints := insertDeltas(old, delta)
	return in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{frontier: cur, hints: hints, shard: true})
}

// insertDeltas is the Delta map of a semi-naive round — every IDB
// predicate drives its positive literals with its delta, literals
// before the driver reading old — plus the output size hints: the
// incoming delta's cardinality, the best available estimate of the
// next round's.
func insertDeltas(old, delta State) (map[string]Delta, map[string]int) {
	deltas := make(map[string]Delta, len(delta))
	hints := make(map[string]int, len(delta))
	for pred, d := range delta {
		deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: old[pred]}}
		if n := d.Len(); n > 0 {
			hints[pred] = n
		}
	}
	return deltas, hints
}

// ApplyDeltasFrontier is ApplyDeltas filtered against an accumulated
// state: it returns exactly ApplyDeltas(pos, neg, deltas).Diff(against).
// The DRed delete/rederive and insert-propagation loops of the
// incremental maintainer run on it.
func (in *Instance) ApplyDeltasFrontier(pos, neg State, deltas map[string]Delta, against State) State {
	return in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{frontier: against, shard: true})
}

// minShardSpan is the smallest arena range worth a shard of its own:
// below it, the per-task planning and context cost outweighs the
// parallelism.
const minShardSpan = 64

// expandShards splits tasks into arena-range shards of their driver
// relations until there is enough work for nw workers.  A task's split
// target is its semi-naive driver literal when it has one, else the
// literal the planner would enumerate first; tasks whose target is too
// small to split pass through unchanged.  The shard ranges partition
// the target's arena, so the shard outputs union to exactly the
// unsharded output.
func (in *Instance) expandShards(tasks []evalTask, pos State, nw int) []evalTask {
	out := make([]evalTask, 0, nw)
	for _, t := range tasks {
		lit, rel := in.shardTarget(t, pos)
		n := 0
		if lit >= 0 && rel != nil {
			n = rel.Len()
		}
		shards := nw
		if max := n / minShardSpan; shards > max {
			shards = max
		}
		if shards <= 1 {
			out = append(out, t)
			continue
		}
		span := (n + shards - 1) / shards
		for lo := 0; lo < n; lo += span {
			hi := lo + span
			if hi > n {
				hi = n
			}
			t2 := t
			t2.shardLit, t2.shardLo, t2.shardHi = lit, int32(lo), int32(hi)
			out = append(out, t2)
		}
	}
	return out
}

// shardTarget resolves the literal an intra-rule split partitions and
// the concrete relation it enumerates, mirroring evalRule's resolution
// of literal sources.
func (in *Instance) shardTarget(t evalTask, pos State) (int, *relation.Relation) {
	rp := t.rp
	if len(rp.positives) == 0 {
		return -1, nil
	}
	resolve := func(i int) Overlay {
		switch {
		case t.pos[i].Base != nil:
			return t.pos[i]
		case !rp.positives[i].idb:
			return Overlay{Base: in.edbRel(rp.positives[i].pred)}
		default:
			return Overlay{Base: pos[rp.positives[i].pred]}
		}
	}
	if t.driver >= 0 {
		return t.driver, resolve(t.driver).Base
	}
	rels := make([]Overlay, len(rp.positives))
	for i := range rels {
		rels[i] = resolve(i)
	}
	lit := firstJoinPick(rp, rels)
	if lit < 0 {
		return -1, nil
	}
	return lit, rels[lit].Base
}
