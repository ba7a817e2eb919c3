// frontier.go — passes that extend a state, and intra-rule sharding.
//
// Every fixpoint loop unions each round's derivations into an
// accumulated state, and almost every derivation of a late round is a
// duplicate of what that state already holds.  A pass whose Spec sets
// Into writes into that state itself, reading it through pass-start
// views.  Inline, an emission goes straight into Into's relation,
// deduped by its key table: one probe, no copy.  On the pool, each
// worker derives into a private output filtered against Into at emit
// time (a read-only probe in the compiled bind/check loop, see
// Relation.AddNotIn), merged into Into by one probe per tuple and
// dropped.  What the pass added is the arena range past the pass-start
// lengths, which Eval returns as views (Relation.Since): the next
// round's delta is a range of the state, not a relation of its own.
//
// Intra-rule sharding keeps every worker busy when a round has fewer
// rule tasks than the pool has workers: a task's driver relation (the
// semi-naive delta, or the first planned literal of a full application)
// is split into arena-range shards of at least minShardSpan tuples, one
// task per shard, each restricted to its range — of the driver's own
// range, when it is a view (Relation.Since).  The ranges partition
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
		var first, end int32
		if lit >= 0 && rel != nil {
			first, end = rel.Span()
		}
		shards := min(nw, int(end-first)/minShardSpan)
		if shards <= 1 {
			out = append(out, t)
			continue
		}
		span := (end - first + int32(shards) - 1) / int32(shards)
		for lo := first; lo < end; lo += span {
			t2 := t
			t2.shardLit, t2.shardLo, t2.shardHi = lit, lo, min(lo+span, end)
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
