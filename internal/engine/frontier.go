// frontier.go — dedup-at-emit derivation and intra-rule sharding.
//
// Every semantics the paper discusses reduces to repeated application
// of Θ, and each repeated round used to triple-handle every tuple:
// derive into a fresh state, Diff against the accumulated state, then
// UnionWith back into it — three hash passes, two of them over tuples
// that are almost always duplicates of what the state already holds.
//
// The frontier contract fuses the three: the *Frontier entry points
// filter every emission against an accumulated state at emit time (a
// read-only membership probe inside the compiled bind/check loop, see
// Relation.AddNotIn) and insert genuinely-new tuples straight into the
// per-predicate delta.  The returned state IS the next delta; callers
// union it into the accumulated state and continue.  SetFrontier(false)
// restores the derive+Diff pipeline behind the same entry points — the
// property-test oracle and the ablation baseline, exactly like the
// SetCostPlanner knob.
//
// Orthogonally, intra-rule sharding keeps every worker busy when a
// program has fewer rule tasks than the pool has workers: a task's
// driver relation (the semi-naive delta, or the first planned literal
// of a full application) is split into arena-range shards, one task per
// shard, each restricted to its range.  The ranges partition the
// driving enumeration, so every derivation belongs to exactly one shard
// and the union of the shard outputs is exactly the unsharded output.
// SetSharding(false) disables the expansion.
package engine

import (
	"sync/atomic"

	"repro/internal/relation"
)

// ApplyFrontier returns Θ(S̄) minus against: every emission already in
// against is dropped at emit time.  With against = s it computes the
// tuples one Θ application adds to s — the inflationary delta — in a
// single pass.
func (in *Instance) ApplyFrontier(s, against State) State {
	return in.ApplySplitFrontier(s, s, against)
}

// ApplySplitFrontier is ApplySplit filtered against an accumulated
// state: it returns exactly ApplySplit(pos, neg).Diff(against), without
// materializing the intermediate state when the frontier path is
// enabled.
func (in *Instance) ApplySplitFrontier(pos, neg, against State) State {
	if !in.FrontierEval() {
		return diffAgainst(in.runTasks(in.fullTasks(), pos, neg, runOpts{shard: true}), against)
	}
	return in.runTasks(in.fullTasks(), pos, neg, runOpts{frontier: against, shard: true})
}

// ApplyDeltaSplitFrontier is the semi-naive round of the frontier
// contract: it returns exactly ApplyDeltaSplit(old, delta, cur,
// neg).Diff(cur) — the genuinely-new tuples of the round — inserting
// them straight into the per-predicate delta it returns.  Output
// relations are pre-sized from the incoming delta's cardinality (the
// best available estimate of the next round's).
func (in *Instance) ApplyDeltaSplitFrontier(old, delta, cur, neg State) State {
	out, _ := in.ApplyDeltaSplitFrontierFiltered(old, delta, cur, neg, nil)
	return out
}

// ApplyDeltaSplitFrontierFiltered is ApplyDeltaSplitFrontier with the
// accumulated-state probe fronted by per-predicate Bloom summaries of
// cur (see Options.FrontierFilter): a "definitely absent" verdict off
// the emit-time TupleHash skips the exact probe entirely.  filters
// must cover cur completely — the fixpoint loops build them with
// FrontierFilters and keep them in lockstep with ExtendFrontierFilters
// — or be nil, which degenerates to the unfiltered entry point.  The
// returned tallies report how often the filter was consulted and how
// often it resolved the probe.
func (in *Instance) ApplyDeltaSplitFrontierFiltered(old, delta, cur, neg State, filters map[string]*relation.Filter) (State, FilterStats) {
	deltas := make(map[string]Delta, len(delta))
	hints := make(map[string]int, len(delta))
	for pred, d := range delta {
		deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: old[pred]}}
		if n := d.Len(); n > 0 {
			hints[pred] = n
		}
	}
	if !in.FrontierEval() {
		// The prefilter only fronts the fused probe; on the derive+Diff
		// oracle it is inert.
		return diffAgainst(in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{shard: true}), cur), FilterStats{}
	}
	out, st := in.runTasksStats(in.deltaTasks(deltas), cur, neg,
		runOpts{frontier: cur, hints: hints, shard: true, filters: filters})
	frontierFilterProbes.Add(st.Probes)
	frontierFilterSkips.Add(st.Skips)
	return out, st
}

// frontierFilterMin is the accumulated-relation size below which no
// frontier prefilter is built: a Bloom pass over a relation that fits
// in cache costs more than the map probes it saves.  Once a relation
// crosses the threshold its filter persists and is extended per round.
const frontierFilterMin = 1024

// frontierFilterHeadroom is the minimum growth allowance fresh
// prefilters are sized with; filterCap doubles on top of it so rebuild
// cost amortizes geometrically — a flat allowance forces a full O(cur)
// rebuild every round once per-round growth exceeds it, turning the
// filter into a quadratic tax on fast-growing relations.
const frontierFilterHeadroom = 4096

// filterCap is the design load a (re)built frontier prefilter is sized
// for, given the relation it must cover.
func filterCap(r *relation.Relation) int {
	return 2*r.Len() + frontierFilterHeadroom
}

// FrontierFilters builds per-predicate Bloom summaries of cur for the
// predicates worth filtering (≥ frontierFilterMin tuples); nil when
// none qualify.  The result covers cur exactly and must be kept in
// lockstep with it via ExtendFrontierFilters.
func FrontierFilters(cur State) map[string]*relation.Filter {
	return ExtendFrontierFilters(nil, cur, nil)
}

// ExtendFrontierFilters keeps frontier prefilters covering the
// accumulated state across a round: grown holds the tuples just
// unioned into cur (they are added to existing filters), predicates
// newly past the size threshold get a fresh filter over all of cur,
// and any filter pushed past its design load is rebuilt at current
// occupancy plus headroom.  It returns the (possibly created) map —
// the no-false-negatives coverage contract holds on every return.
func ExtendFrontierFilters(filters map[string]*relation.Filter, cur, grown State) map[string]*relation.Filter {
	for pred, r := range cur {
		f := filters[pred]
		if f == nil {
			if r.Len() < frontierFilterMin {
				continue
			}
			if filters == nil {
				filters = make(map[string]*relation.Filter, len(cur))
			}
			filters[pred] = relation.FilterOf(r, filterCap(r))
			continue
		}
		if g := grown[pred]; g != nil {
			g.Each(func(t relation.Tuple) bool {
				f.Add(t)
				return true
			})
		}
		if f.Overloaded() {
			filters[pred] = relation.FilterOf(r, filterCap(r))
		}
	}
	return filters
}

// frontierFilterProbes/Skips are the process-wide frontier-prefilter
// tallies surfaced by the serve daemon's /v1/metrics engine block,
// mirroring the partition package's exchange-filter counters.
var (
	frontierFilterProbes atomic.Int64
	frontierFilterSkips  atomic.Int64
)

// FrontierFilterTotals reports the process-wide frontier-prefilter
// telemetry: total emit-path consultations and the subset that
// resolved to "definitely absent" (skipping the exact probe).
func FrontierFilterTotals() (probes, skips int64) {
	return frontierFilterProbes.Load(), frontierFilterSkips.Load()
}

// ApplyDeltasFrontier is ApplyDeltas filtered against an accumulated
// state: it returns exactly ApplyDeltas(pos, neg, deltas).Diff(against).
// The DRed delete/rederive and insert-propagation loops of the
// incremental maintainer run on it.
func (in *Instance) ApplyDeltasFrontier(pos, neg State, deltas map[string]Delta, against State) State {
	if !in.FrontierEval() {
		return diffAgainst(in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{shard: true}), against)
	}
	return in.runTasks(in.deltaTasks(deltas), pos, neg, runOpts{frontier: against, shard: true})
}

// diffAgainst is the derive+Diff fallback: the per-predicate difference
// derived ∖ against, tolerating predicates absent from against.
func diffAgainst(derived, against State) State {
	out := make(State, len(derived))
	for pred, r := range derived {
		if a := against[pred]; a != nil {
			out[pred] = r.Diff(a)
		} else {
			out[pred] = r
		}
	}
	return out
}

// defaultFrontierOff and defaultShardingOff are the process-wide
// defaults for instances without explicit Set calls, mirroring
// defaultPlannerOff: drivers toggle them for instances they do not
// construct.  Both paths are on by default.
var (
	defaultFrontierOff atomic.Bool
	defaultShardingOff atomic.Bool
)

// SetDefaultFrontier sets the process-wide default for instances
// without an explicit SetFrontier call.  On by default.
//
// Deprecated: prefer Options.Frontier per call; this setter remains as
// the fallback a ToggleDefault resolves to.
func SetDefaultFrontier(on bool) { defaultFrontierOff.Store(!on) }

// SetFrontier selects this instance's implementation of the Frontier
// entry points: true fuses the membership probe into the emit loop,
// false computes derive+Diff — bit-exact either way, the knob is the
// ablation baseline and test oracle.
func (in *Instance) SetFrontier(on bool) { in.frontier = ToggleOf(on) }

// FrontierEval reports the effective frontier setting: the value set
// with SetFrontier, else the process default, else on.
func (in *Instance) FrontierEval() bool { return in.frontier.Enabled(!defaultFrontierOff.Load()) }

// defaultFrontierFilterOff is the process-wide default for the
// frontier prefilter, on unless disabled.
var defaultFrontierFilterOff atomic.Bool

// SetDefaultFrontierFilter sets the process-wide default for instances
// without an explicit SetFrontierFilter call.  On by default.
//
// Deprecated: prefer Options.FrontierFilter per call; this setter
// remains as the fallback a ToggleDefault resolves to.
func SetDefaultFrontierFilter(on bool) { defaultFrontierFilterOff.Store(!on) }

// SetFrontierFilter selects whether the unpartitioned fixpoint loops
// front the exact frontier probe with a Bloom summary of the
// accumulated state — bit-exact either way, the knob is the ablation
// baseline, mirroring SetExchangeFilter on the partitioned path.
func (in *Instance) SetFrontierFilter(on bool) { in.frontFilter = ToggleOf(on) }

// FrontierFilter reports the effective frontier-prefilter setting: the
// value set with SetFrontierFilter, else the process default, else on.
func (in *Instance) FrontierFilter() bool {
	return in.frontFilter.Enabled(!defaultFrontierFilterOff.Load())
}

// SetDefaultSharding sets the process-wide default for instances
// without an explicit SetSharding call.  On by default.
//
// Deprecated: prefer Options.Sharding per call; this setter remains as
// the fallback a ToggleDefault resolves to.
func SetDefaultSharding(on bool) { defaultShardingOff.Store(!on) }

// SetSharding enables or disables intra-rule data parallelism (the
// arena-range shard expansion of runTasks).  Sharded and unsharded
// evaluation produce identical states; only core utilization differs.
func (in *Instance) SetSharding(on bool) { in.sharding = ToggleOf(on) }

// Sharding reports the effective sharding setting: the value set with
// SetSharding, else the process default, else on.
func (in *Instance) Sharding() bool { return in.sharding.Enabled(!defaultShardingOff.Load()) }

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
	lit := firstJoinPick(rp, rels, in.CostPlanner())
	if lit < 0 {
		return -1, nil
	}
	return lit, rels[lit].Base
}
