// frontier.go — dedup-at-emit derivation and intra-rule sharding.
//
// Every fixpoint loop unions each round's derivations into an
// accumulated state, and almost every derivation of a late round is a
// duplicate of what that state already holds.  A pass whose Spec sets
// Against therefore filters every emission against the accumulated
// state at emit time (a read-only membership probe inside the compiled
// bind/check loop, see Relation.AddNotIn) and inserts genuinely-new
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
// the concrete relation it enumerates, with evalRule's resolution of
// literal sources.
func (in *Instance) shardTarget(t evalTask, pos State) (int, *relation.Relation) {
	rp := t.rp
	if len(rp.positives) == 0 {
		return -1, nil
	}
	if t.driver >= 0 {
		return t.driver, in.source(t.pos, t.driver, rp.positives[t.driver], pos).Base
	}
	rels := make([]Overlay, len(rp.positives))
	for i, lp := range rp.positives {
		rels[i] = in.source(t.pos, i, lp, pos)
	}
	lit := firstJoinPick(rp, rels)
	if lit < 0 {
		return -1, nil
	}
	return lit, rels[lit].Base
}
