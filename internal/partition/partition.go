// Package partition implements K-way hash-partitioned evaluation with
// cross-partition delta exchange — the multi-goroutine-pool evaluator
// the ROADMAP names as the step past one shared arena.
//
// # Architecture
//
// The semi-naive fixpoint loop (semantics.lfpLoopLog) is replaced by a
// coordinator plus K long-lived partition goroutines.  Ownership is by
// head-tuple hash: partition p owns every tuple t with
// relation.TupleHash(t) % K == p — the same partitioner the engine's
// bucket merge uses.  Each round:
//
//   - every partition drives the engine's semi-naive round body with
//     its own shard of the delta (the tuples it owns), while non-driver
//     and negated literals read the full shared states;
//   - derivations are routed at emit time into K owner buckets by the
//     same hash (engine.ApplyDeltaSplitFrontierParts), so the only data
//     that crosses a partition boundary is the bucket of tuples the
//     receiving partition owns — the cross-partition delta exchange,
//     carried over buffered channels;
//   - each partition merges the K buckets it receives (set union: two
//     partitions may derive the same tuple in one round) into the
//     accepted delta it owns, and hands it to the coordinator;
//   - the coordinator unions the accepted deltas into the accumulated
//     state between rounds — the exchange barrier — and the accepted
//     deltas become the partitions' next drivers.
//
// # Correctness
//
// Sharding only the delta preserves semi-naive coverage: a derivation
// is found in the round where its first genuinely-new tuple appears,
// by the partition owning that tuple — literals before the driver read
// the full previous state and literals after it read the full current
// state, exactly as in the unpartitioned round.  Negated literals probe
// the full accumulated state (never a shard), so antijoin semantics are
// untouched.  Owner buckets partition each round's emissions, and the
// per-owner merge dedups same-round cross-partition duplicates, so the
// union of accepted deltas equals the unpartitioned round's delta —
// bit-exact vs K=1 for every semantics, every round.
//
// The exchange path is fronted by a Bloom prefilter of the accumulated
// state (relation.Filter): a "definitely absent" answer skips the exact
// membership probe, a "maybe present" answer falls through to it.  The
// filter is rebuilt or extended by the coordinator between rounds, so
// it always covers the state the partitions filter against.
package partition

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
)

// Result is the outcome of a partitioned fixpoint run, mirroring the
// fields semantics.lfpLoopLog tracks.
type Result struct {
	State    engine.State
	Rounds   int
	MaxDelta int
	// FilterProbes / FilterSkips are this run's exchange-prefilter
	// tallies (summed across partitions and rounds); zero with the
	// filter off.
	FilterProbes int64
	FilterSkips  int64
}

// roundMsg carries one round's inputs to a partition: shared read-only
// views of the previous/current/negation states, the partition's owned
// delta shard, and the current accumulated-state prefilters.
type roundMsg struct {
	prev    engine.State
	cur     engine.State
	neg     engine.State
	delta   engine.State
	filters map[string]*relation.Filter
}

// bucketMsg is one exchanged owner bucket: the derivations partition
// `from` routed to the receiving partition this round.
type bucketMsg struct {
	from   int
	bucket engine.State
}

// acceptMsg is a partition's round result: the merged, deduplicated
// delta it owns, the pre-dedup count of tuples that crossed a partition
// boundary to reach it, and the round's prefilter tallies.
type acceptMsg struct {
	owner    int
	accepted engine.State
	cross    int
	fprobes  int64
	fskips   int64
}

// Fixpoint iterates S ↦ S ∪ Θ(S) to its inductive fixpoint across
// in.Partitions() hash-partitioned evaluators, mirroring the
// unpartitioned loop exactly: when negFixed is non-nil, negated IDB
// literals are evaluated against it (the well-founded Γ operator); log,
// when non-nil, observes an immutable snapshot of every stage.  The
// result is bit-exact vs the K=1 loop.
func Fixpoint(in *engine.Instance, negFixed engine.State, log func(engine.State)) *Result {
	k := in.Partitions()
	negOf := func(s engine.State) engine.State {
		if negFixed != nil {
			return negFixed
		}
		return s
	}

	res := &Result{}
	prev := in.NewState()
	cur := in.ApplySplit(prev, negOf(prev))
	res.Rounds = 1
	delta := cur.Snapshot()
	if log != nil {
		log(delta)
	}
	res.MaxDelta = delta.Total()
	if delta.Empty() || k <= 1 {
		// Nothing to iterate (or nothing to partition): finish on the
		// unpartitioned loop shape.
		for !delta.Empty() {
			newDelta := in.ApplyDeltaSplitFrontier(prev, delta, cur, negOf(cur))
			res.Rounds++
			if newDelta.Empty() {
				break
			}
			if n := newDelta.Total(); n > res.MaxDelta {
				res.MaxDelta = n
			}
			prev = cur.Snapshot()
			cur.UnionDisjoint(newDelta)
			if log != nil {
				log(cur.Snapshot())
			}
			delta = newDelta
		}
		res.State = cur
		return res
	}

	met.runs.Inc()
	// Split the instance's worker pool across the K concurrently
	// evaluating partitions.
	pw := in.Workers() / k
	if pw < 1 {
		pw = 1
	}

	// The prefilter must cover the accumulated state completely — a
	// false negative would admit a duplicate into a disjoint union — so
	// the coordinator keeps it in lockstep with cur between rounds.
	filters := make(map[string]*relation.Filter, len(cur))
	for pred, r := range cur {
		filters[pred] = relation.FilterOf(r, r.Len()+filterHeadroom)
	}

	work := make([]chan roundMsg, k)
	inboxes := make([]chan bucketMsg, k)
	done := make(chan acceptMsg, k)
	for p := 0; p < k; p++ {
		work[p] = make(chan roundMsg, 1)
		// Buffered for all K senders, so the all-to-all exchange never
		// blocks a sender and cannot deadlock.
		inboxes[p] = make(chan bucketMsg, k)
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for p := 0; p < k; p++ {
		go func(p int) {
			defer wg.Done()
			partitionLoop(in, p, k, pw, work[p], inboxes, done)
		}(p)
	}

	shards := shardState(delta, k)
	for {
		for p := 0; p < k; p++ {
			work[p] <- roundMsg{prev: prev, cur: cur, neg: negOf(cur), delta: shards[p], filters: filters}
		}
		accepted := make([]engine.State, k)
		total, exchanged := 0, 0
		for i := 0; i < k; i++ {
			am := <-done
			accepted[am.owner] = am.accepted
			total += am.accepted.Total()
			exchanged += am.cross
			res.FilterProbes += am.fprobes
			res.FilterSkips += am.fskips
		}
		res.Rounds++
		met.rounds.Inc()
		met.exchanged.Add(int64(exchanged))
		met.roundExchange.Observe(asDuration(exchanged))
		if total == 0 {
			break
		}
		met.accepted.Add(int64(total))
		if total > res.MaxDelta {
			res.MaxDelta = total
		}
		prev = cur.Snapshot()
		for q := 0; q < k; q++ {
			cur.UnionDisjoint(accepted[q])
		}
		if filters != nil {
			extendFilters(filters, cur, accepted)
		}
		if log != nil {
			log(cur.Snapshot())
		}
		shards = accepted
	}
	for p := 0; p < k; p++ {
		close(work[p])
	}
	wg.Wait()

	recordPartitionSizes(cur, k)
	res.State = cur
	return res
}

// partitionLoop is one partition's lifetime: evaluate the round body on
// the owned delta shard, exchange owner buckets with every partition,
// merge the received buckets, and hand the accepted delta to the
// coordinator.  The channel sends/receives establish the happens-before
// edges that make the shared states safe to read: the coordinator only
// mutates them between rounds.
func partitionLoop(in *engine.Instance, p, k, pw int, work <-chan roundMsg, inboxes []chan bucketMsg, done chan<- acceptMsg) {
	for msg := range work {
		po := engine.PartsOpts{NParts: k, Workers: pw, Filters: msg.filters}
		parts, fst := in.ApplyDeltaSplitFrontierParts(msg.prev, msg.delta, msg.cur, msg.neg, po)
		met.filterProbes.Add(fst.Probes)
		met.filterSkips.Add(fst.Skips)
		for q := 0; q < k; q++ {
			inboxes[q] <- bucketMsg{from: p, bucket: parts[q]}
		}
		var own engine.State
		others := make([]engine.State, 0, k-1)
		cross := 0
		for i := 0; i < k; i++ {
			bm := <-inboxes[p]
			if bm.from == p {
				own = bm.bucket
			} else {
				cross += bm.bucket.Total()
				others = append(others, bm.bucket)
			}
		}
		// Merge by set union: the same tuple may have been derived by
		// several partitions in one round; after this the accepted delta
		// is duplicate-free and disjoint from the accumulated state.
		for _, o := range others {
			own.UnionWith(o)
		}
		done <- acceptMsg{owner: p, accepted: own, cross: cross, fprobes: fst.Probes, fskips: fst.Skips}
	}
}

// shardState splits a state into k owner shards by tuple hash: shard p
// holds exactly the tuples partition p owns.
func shardState(s engine.State, k int) []engine.State {
	shards := make([]engine.State, k)
	for p := range shards {
		shards[p] = make(engine.State, len(s))
	}
	for pred, r := range s {
		parts := make([]*relation.Relation, k)
		for p := range parts {
			parts[p] = relation.New(r.Arity())
		}
		r.Each(func(t relation.Tuple) bool {
			h := relation.TupleHash(t)
			parts[h%uint64(k)].AddHash(t, h)
			return true
		})
		for p := range parts {
			shards[p][pred] = parts[p]
		}
	}
	return shards
}

// filterHeadroom is the growth allowance a fresh accumulated-state
// prefilter is sized with, so small early rounds do not trigger a
// rebuild every round.
const filterHeadroom = 4096

// extendFilters keeps the prefilters covering the accumulated state:
// the round's accepted tuples are added, and any filter pushed past its
// design load is rebuilt from the (already-unioned) accumulated
// relation at double occupancy.
func extendFilters(filters map[string]*relation.Filter, cur engine.State, accepted []engine.State) {
	for pred, f := range filters {
		for _, a := range accepted {
			if r := a[pred]; r != nil && r.Len() > 0 {
				r.Each(func(t relation.Tuple) bool {
					f.Add(t)
					return true
				})
			}
		}
		if f.Overloaded() {
			filters[pred] = relation.FilterOf(cur[pred], cur[pred].Len()+filterHeadroom)
		}
	}
}

// ApplyDeltasFrontier is the partitioned counterpart of
// engine.ApplyDeltasFrontier, used by the incremental maintainer's
// propagation loops: each delta's driver relations are sharded by owner
// hash, the K partitions evaluate their shards concurrently, and the
// owner-merged buckets are concatenated back into one state.  With
// in.Partitions() ≤ 1 it degenerates to the unpartitioned entry point.
func ApplyDeltasFrontier(in *engine.Instance, pos, neg engine.State, deltas map[string]engine.Delta, against engine.State) engine.State {
	k := in.Partitions()
	if k <= 1 {
		return in.ApplyDeltasFrontier(pos, neg, deltas, against)
	}

	shards := shardDeltas(deltas, k)
	po := engine.PartsOpts{NParts: k}
	if w := in.Workers() / k; w > 1 {
		po.Workers = w
	} else {
		po.Workers = 1
	}

	// merged[q] accumulates the owner-q buckets across partitions.
	merged := make([][]engine.State, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for p := 0; p < k; p++ {
		go func(p int) {
			defer wg.Done()
			parts, _ := in.ApplyDeltasFrontierParts(pos, neg, shards[p], against, po)
			merged[p] = parts
		}(p)
	}
	wg.Wait()

	out := make(engine.State)
	for pred := range merged[0][0] {
		buckets := make([]*relation.Relation, k)
		for q := 0; q < k; q++ {
			b := merged[0][q][pred]
			for p := 1; p < k; p++ {
				b.UnionWith(merged[p][q][pred])
			}
			buckets[q] = b
		}
		out[pred] = relation.ConcatDisjoint(in.Arity(pred), buckets)
	}
	return out
}

// shardDeltas splits every delta's driver relations (and only the
// drivers — the side states are shared reads) into k owner shards.
func shardDeltas(deltas map[string]engine.Delta, k int) []map[string]engine.Delta {
	shards := make([]map[string]engine.Delta, k)
	for p := range shards {
		shards[p] = make(map[string]engine.Delta, len(deltas))
	}
	for pred, d := range deltas {
		posParts := shardRelation(d.PosDriver, k)
		negParts := shardRelation(d.NegDriver, k)
		for p := 0; p < k; p++ {
			sd := d
			if posParts != nil {
				sd.PosDriver = posParts[p]
			}
			if negParts != nil {
				sd.NegDriver = negParts[p]
			}
			shards[p][pred] = sd
		}
	}
	return shards
}

// shardRelation splits one relation into k owner shards; nil in, nil
// out.
func shardRelation(r *relation.Relation, k int) []*relation.Relation {
	if r == nil {
		return nil
	}
	parts := make([]*relation.Relation, k)
	for p := range parts {
		parts[p] = relation.New(r.Arity())
	}
	r.Each(func(t relation.Tuple) bool {
		h := relation.TupleHash(t)
		parts[h%uint64(k)].AddHash(t, h)
		return true
	})
	return parts
}
