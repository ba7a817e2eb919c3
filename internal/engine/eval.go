package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// evalCtx carries the relation sources for one rule evaluation: pos[i]
// resolves the i-th positive literal, neg[i] the i-th negated literal,
// each a relation read as is (Base alone) or through an Overlay.
// The sources are resolved once per rule evaluation — they cannot
// change mid-rule — so the join loop never goes through a predicate
// map.  headBuf and negBuf are scratch tuples reused across emissions
// so the hot path allocates only when a genuinely new tuple is stored.
// When cnt is non-nil the task is a counting pass: every emission bumps
// the head tuple's derivation count instead of inserting into out.
//
// cur, when non-nil, is the frontier filter: emissions already present
// in it are dropped at emit time (a read-only membership probe fused
// into the insert, see Relation.AddNotIn), so a frontier pass returns
// exactly the genuinely-new tuples without a derived state or a Diff.
// parts, when non-nil, replaces out with hash-partitioned buckets so
// per-worker outputs can be merged bucket-by-bucket and concatenated
// disjointly.
type evalCtx struct {
	pos     []Overlay
	neg     []Overlay
	out     *relation.Relation
	parts   []*relation.Relation
	cur     *relation.Relation
	cnt     *relation.Multiset
	usize   int
	headBuf relation.Tuple
	negBuf  relation.Tuple
	// filter, when non-nil, is a Bloom summary of cur fronting the exact
	// frontier probe on partitioned passes: a "definitely absent" answer
	// skips the cur map probe entirely (the tuple is surely new), a
	// "maybe present" answer falls through to the exact AddNotIn.
	// fprobes/fskips count the filter consultations and the probes it
	// saved, accumulated into the workerOut after the rule completes.
	filter  *relation.Filter
	fprobes int64
	fskips  int64
}

// evalTask is one unit of parallel work: a rule plan plus optional
// per-literal source overrides (the semi-naive and delta variants).
// pos[i] overrides what the i-th positive literal reads, neg[j] what the
// j-th negated literal is checked against.
//
// driver is the positive-literal index whose relation drives the task
// (the semi-naive delta, or the ApplyWithin filter); -1 when the task
// has no distinguished driver.  It is the preferred split target for
// intra-rule sharding.  A sharded task restricts the enumeration of
// literal shardLit to the arena range [shardLo, shardHi); shardHi == 0
// means the task is unsharded.
type evalTask struct {
	rp               *rulePlan
	pos              map[int]Overlay
	neg              map[int]Overlay
	driver           int
	shardLit         int
	shardLo, shardHi int32
}

// Apply computes Θ(S̄): the relations derived from the database and s by
// one parallel application of all rules.  Apply never reads its output
// while deriving, so it is the paper's simultaneous operator.
func (in *Instance) Apply(s State) State { return in.ApplySplit(s, s) }

// ApplySplit evaluates positive IDB literals against pos and negated
// IDB literals against neg.  With pos = neg it is Θ; with neg held
// fixed it is the monotone operator whose least fixpoint is the
// Gelfond–Lifschitz style Γ(neg) used by the well-founded alternating
// fixpoint.
//
// Rule plans are evaluated concurrently across a worker pool (see
// Options.Workers); each worker derives into a private state and the
// per-worker states are merged by set union at the end, so the result
// is identical to sequential evaluation.
func (in *Instance) ApplySplit(pos, neg State) State {
	return in.runTasks(in.fullTasks(), pos, neg, runOpts{shard: true})
}

// fullTasks builds one driverless task per rule plan — the task set of
// a full Θ application.
func (in *Instance) fullTasks() []evalTask {
	tasks := make([]evalTask, len(in.plans))
	for i, rp := range in.plans {
		tasks[i] = evalTask{rp: rp, driver: -1}
	}
	return tasks
}

// ApplyDelta computes the subset of Θ(cur) derivable by rule
// applications that use at least one tuple of delta in a positive IDB
// literal.  old must be the previous stage (cur = old ∪ delta).
// Negated literals are evaluated against cur.  Rules without positive
// IDB literals contribute nothing (their derivations never depend on
// the delta; see the package comment).
func (in *Instance) ApplyDelta(old, delta, cur State) State {
	return in.ApplyDeltaSplit(old, delta, cur, cur)
}

// ApplyDeltaSplit is ApplyDelta with negated IDB literals evaluated
// against an explicit state neg instead of cur.  Like ApplySplit, the
// (rule, variant) pairs run concurrently on the worker pool.
//
// It is the IDB-insert special case of the general delta machinery in
// delta.go: every IDB predicate drives positive literals with its delta
// relation, literals before the driver read the old relation, literals
// after it fall through to cur.
func (in *Instance) ApplyDeltaSplit(old, delta, cur, neg State) State {
	deltas, _ := insertDeltas(old, delta)
	return in.runTasks(in.deltaTasks(deltas), cur, neg, runOpts{shard: true})
}

// runOpts tunes one runTasks pass.
type runOpts struct {
	// frontier, when non-nil, drops every emission whose head tuple is
	// already present in frontier[headPred]: the pass returns exactly the
	// genuinely-new tuples, with no derived state and no Diff.
	frontier State
	// hints pre-sizes per-predicate outputs from the caller's expected
	// cardinality (typically last round's delta), and selects which
	// predicates get hash-partitioned per-worker outputs.
	hints map[string]int
	// shard allows intra-rule data parallelism: when tasks < workers,
	// tasks are split into arena-range shards of their driver relation so
	// every worker gets work even on programs with few rules.
	shard bool
	// nparts, when > 1, switches every predicate's per-worker output to
	// nparts owner buckets partitioned by TupleHash — the exchange unit
	// of partitioned evaluation (runTasksParts).  Unlike the hint-driven
	// partitioning above, it applies unconditionally.
	nparts int
	// workers caps the worker pool for this pass; 0 follows
	// in.Workers().  Partitioned passes split the instance pool across
	// the concurrently-evaluating partitions.
	workers int
	// filters, when non-nil, front the frontier probe per predicate with
	// a Bloom summary of the accumulated state (see evalCtx.filter).
	filters map[string]*relation.Filter
	// count switches the pass to counting mode (see runTasksCount).
	count bool
}

// workerOut is one worker's private derivation output, sized for the
// worker's share of the expected delta (see newWorkerOut).  Most
// predicates derive into out; predicates expected to produce large
// deltas (hints ≥ partitionThreshold) derive into parts — one relation
// per merge bucket, as many buckets as workers, partitioned by
// head-tuple hash — so the cross-worker merge can run bucket-by-bucket
// in parallel and assemble the result by disjoint concatenation instead
// of one serial re-hashed union.
type workerOut struct {
	out     State
	parts   map[string][]*relation.Relation
	against State // frontier filter, nil when the pass keeps everything
	// filters and the probe counters serve partitioned exchange passes:
	// per-predicate Bloom prefilters over the accumulated state, and the
	// per-worker tallies of how often they were consulted / saved the
	// exact probe.
	filters map[string]*relation.Filter
	fprobes int64
	fskips  int64
	// cnt, in a counting pass, replaces out: per head predicate, every
	// emitted tuple with its number of derivations.
	cnt map[string]*relation.Multiset
}

// partitionThreshold is the expected per-predicate cardinality above
// which parallel frontier passes switch that predicate's per-worker
// output to hash-partitioned buckets.  Below it the partitions' fixed
// cost (nbuckets relations per worker) outweighs the parallel merge.
const partitionThreshold = 1024

// scratchPool is process-global, not per-instance: a sync.Pool that
// ever sees a Put registers itself with the runtime and is visited by
// every later GC cycle, so per-instance pools make GC cost scale with
// the number of instances ever built — a real tax on workloads like
// demand-driven queries that construct thousands of short-lived
// instances.  A pooled scratch holds no relation (putScratch strips
// every reference), so sharing it across instances is sound.  Relations
// are never pooled: an insert allocates once per arena chunk, and a
// merged-away worker output is garbage as soon as the merge has copied
// it.
var scratchPool sync.Pool

// newWorkerOut builds the output of one of nw workers, presized for the
// worker's share of each hinted predicate: 1/nw of the expected
// cardinality, divided again among the predicate's buckets.  A
// partition-exchange pass routes every predicate into opts.nparts owner
// buckets — the bucket boundary is the exchange unit, not a merge
// optimization; otherwise, with nw > 1, a predicate expected to reach
// partitionThreshold derives into nw merge buckets.
func (in *Instance) newWorkerOut(opts runOpts, nw int) *workerOut {
	if opts.count {
		return &workerOut{cnt: make(map[string]*relation.Multiset)}
	}
	wo := &workerOut{out: in.NewState(), against: opts.frontier, filters: opts.filters}
	for pred, r := range wo.out {
		n, nb := opts.hints[pred], opts.nparts
		if nb == 0 && nw > 1 && n >= partitionThreshold {
			nb = nw
		}
		if nb == 0 {
			r.ReserveHint(n / nw)
			continue
		}
		parts := make([]*relation.Relation, nb)
		for b := range parts {
			parts[b] = relation.New(r.Arity())
			parts[b].ReserveHint(n / (nw * nb))
		}
		if wo.parts == nil {
			wo.parts = make(map[string][]*relation.Relation)
		}
		wo.parts[pred] = parts
	}
	return wo
}

// runTasks evaluates every task against (pos, neg) and returns the
// union of their derivations (minus opts.frontier, when set).  With
// more than one task and more than one configured worker, tasks are
// distributed over a pool of goroutines, each deriving into a private
// output; because the final merge is a union of sets (or a disjoint
// concatenation of hash partitions), the result is bit-exact regardless
// of worker count or scheduling order.  Input states are only read:
// lazy index construction inside Relation is internally synchronized.
//
// When opts.shard is set and there are fewer tasks than workers, tasks
// are first split into arena-range shards of their driver relation (see
// expandShards), so even a two-rule program keeps every core busy.
func (in *Instance) runTasks(tasks []evalTask, pos, neg State, opts runOpts) State {
	out, _ := in.runTasksStats(tasks, pos, neg, opts)
	return out
}

// runTasksStats is runTasks returning the pass's emit-path prefilter
// telemetry alongside the derived state (zero when opts.filters is
// nil — the exact-probe-only path never consults a filter).
func (in *Instance) runTasksStats(tasks []evalTask, pos, neg State, opts runOpts) (State, FilterStats) {
	wos := in.runPool(tasks, pos, neg, opts)
	var st FilterStats
	for _, wo := range wos {
		st.Probes += wo.fprobes
		st.Skips += wo.fskips
	}
	return in.mergeWorkerOuts(wos), st
}

// runPool evaluates every task against (pos, neg) on a pool of
// opts.workers (else Workers()) goroutines, each deriving into a private
// output, and returns the per-worker outputs.  With fewer tasks than
// workers and opts.shard set, tasks are first split into arena-range
// shards of their driver relation (see expandShards), so even a
// two-rule program keeps every core busy.  One worker, or one task,
// runs inline.
func (in *Instance) runPool(tasks []evalTask, pos, neg State, opts runOpts) []*workerOut {
	nw := opts.workers
	if nw <= 0 {
		nw = in.Workers()
	}
	if opts.shard && nw > len(tasks) && len(tasks) > 0 {
		tasks = in.expandShards(tasks, pos, nw)
	}
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 {
		wo := in.newWorkerOut(opts, 1)
		for _, t := range tasks {
			in.evalRule(t, pos, neg, wo)
		}
		return []*workerOut{wo}
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
				in.evalRule(tasks[i], pos, neg, wo)
			}
			wos[w] = wo
		}(w)
	}
	wg.Wait()
	return wos
}

// mergeWorkerOuts combines per-worker outputs: plain predicates by set
// union into the first worker's state, partitioned predicates by a
// parallel per-bucket union into the first worker's bucket followed by
// disjoint concatenation (buckets are hash partitions, so tuples of
// different buckets can never collide).  Every other worker relation is
// dropped as soon as its ids are copied, so it is garbage for the rest
// of the merge.
func (in *Instance) mergeWorkerOuts(wos []*workerOut) State {
	out := wos[0].out
	for _, wo := range wos[1:] {
		out.UnionWith(wo.out)
		wo.out = nil
	}
	for pred, merged := range wos[0].parts {
		var wg sync.WaitGroup
		wg.Add(len(merged))
		for b := range merged {
			go func(b int) {
				defer wg.Done()
				for _, wo := range wos[1:] {
					merged[b].UnionWith(wo.parts[pred][b])
					wo.parts[pred][b] = nil
				}
			}(b)
		}
		wg.Wait()
		whole := relation.ConcatDisjoint(in.arities[pred], merged)
		clear(merged)
		// The non-partitioned per-worker outputs for this predicate are
		// empty by construction, but union them anyway for safety.
		whole.UnionWith(out[pred])
		out[pred] = whole
	}
	return out
}

// runTasksCount evaluates every task in counting mode: instead of a
// derived set it returns, per head predicate, the multiset of head
// tuples with the number of distinct rule-body derivations that emitted
// each.  Workers fill private multisets merged by summation, so counts
// are exact regardless of scheduling.
func (in *Instance) runTasksCount(tasks []evalTask, pos, neg State) map[string]*relation.Multiset {
	wos := in.runPool(tasks, pos, neg, runOpts{count: true})
	cnt := wos[0].cnt
	for _, wo := range wos[1:] {
		for pred, ms := range wo.cnt {
			if have := cnt[pred]; have != nil {
				have.MergeFrom(ms)
			} else {
				cnt[pred] = ms
			}
		}
	}
	return cnt
}

// IsFixpoint reports whether Θ(S̄) = S̄, i.e. whether s is a fixpoint of
// (π, D) in the paper's sense.
func (in *Instance) IsFixpoint(s State) bool {
	return in.Apply(s).Equal(s)
}

// evalScratch is the reusable per-rule evaluation state: the context
// struct, its scratch tuples and source slices, and the variable
// binding array.  evalRule checks one out of the instance's pool per
// call and returns it cleared, so the steady state of a fixpoint loop
// allocates nothing here regardless of round count.
type evalScratch struct {
	ctx     evalCtx
	binding []int
}

// growSlice resizes a scratch slice to n, reallocating only past the
// high-water mark of previous rules.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getScratch checks a cleared evalScratch out of the pool, sized for
// the given rule plan.
func (in *Instance) getScratch(rp *rulePlan, maxNeg int) *evalScratch {
	sc, _ := scratchPool.Get().(*evalScratch)
	if sc == nil {
		sc = &evalScratch{}
	}
	sc.ctx.headBuf = growSlice(sc.ctx.headBuf, len(rp.headSlots))
	sc.ctx.negBuf = growSlice(sc.ctx.negBuf, maxNeg)
	sc.ctx.pos = growSlice(sc.ctx.pos, len(rp.positives))
	sc.ctx.neg = growSlice(sc.ctx.neg, len(rp.negatives))
	sc.binding = growSlice(sc.binding, rp.nvars)
	for i := range sc.binding {
		sc.binding[i] = -1
	}
	return sc
}

// putScratch returns a scratch to the pool, dropping every relation
// reference so pooled entries never pin last round's states.
func (in *Instance) putScratch(sc *evalScratch) {
	ctx := &sc.ctx
	ctx.out, ctx.cur, ctx.parts, ctx.cnt, ctx.filter = nil, nil, nil, nil, nil
	for i := range ctx.pos {
		ctx.pos[i] = Overlay{}
	}
	for i := range ctx.neg {
		ctx.neg[i] = Overlay{}
	}
	ctx.fprobes, ctx.fskips = 0, 0
	scratchPool.Put(sc)
}

// evalRule evaluates one task's rule plan.  posState resolves positive
// IDB literals, negState negated ones; the task's override maps replace
// the relation of specific literal indices (the semi-naive and delta
// variants).  In a counting pass (wo.cnt non-nil) every derivation
// bumps the head tuple's count in wo.cnt[headPred] instead of inserting
// into the worker output.
func (in *Instance) evalRule(task evalTask, posState, negState State, wo *workerOut) {
	rp := task.rp
	maxNeg := 0
	for _, np := range rp.negatives {
		if len(np.slots) > maxNeg {
			maxNeg = len(np.slots)
		}
	}
	sc := in.getScratch(rp, maxNeg)
	ctx := &sc.ctx
	ctx.usize = in.db.Universe().Size()
	ctx.out = wo.out[rp.headPred]
	if wo.parts != nil {
		ctx.parts = wo.parts[rp.headPred]
	}
	if wo.against != nil {
		ctx.cur = wo.against[rp.headPred]
	}
	if wo.filters != nil {
		ctx.filter = wo.filters[rp.headPred]
	}
	if wo.cnt != nil {
		ms := wo.cnt[rp.headPred]
		if ms == nil {
			ms = relation.NewMultiset(len(rp.headSlots))
			wo.cnt[rp.headPred] = ms
		}
		ctx.cnt = ms
	}
	for i, lp := range rp.positives {
		switch {
		case task.pos[i].Base != nil:
			ctx.pos[i] = task.pos[i]
		case !lp.idb:
			ctx.pos[i] = Overlay{Base: in.edbRel(lp.pred)}
		default:
			ctx.pos[i] = Overlay{Base: posState[lp.pred]}
		}
	}
	for i, np := range rp.negatives {
		switch {
		case task.neg[i].Base != nil:
			ctx.neg[i] = task.neg[i]
		case !np.idb:
			ctx.neg[i] = Overlay{Base: in.edbRel(np.pred)}
		default:
			ctx.neg[i] = Overlay{Base: negState[np.pred]}
		}
	}
	// Plan against the resolved relations: the planner sees the actual
	// sizes of this task's sources (deltas included), so join orders are
	// re-costed every round.
	shardLit := -1
	if task.shardHi > 0 {
		shardLit = task.shardLit
	}
	ep := buildExec(rp, ctx.pos, shardLit, task.shardLo, task.shardHi)
	in.run(rp, ctx, ep, 0, sc.binding)
	wo.fprobes += ctx.fprobes
	wo.fskips += ctx.fskips
	in.putScratch(sc)
}

// slotValue resolves a slot under the current binding; -1 means the
// slot holds an unbound variable.
func slotValue(s slot, binding []int) int {
	if s.isConst {
		return s.val
	}
	return binding[s.val]
}

// run executes the plan from step si under the given partial binding,
// emitting head tuples into ctx.out.
func (in *Instance) run(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int) {
	if si == len(ep.steps) {
		// Fill the scratch head buffer; AddNotIn (and Multiset.Bump for a
		// new tuple) copies it only when actually stored.  ctx.cur is the
		// frontier filter: emissions already in the accumulated state are
		// dropped here, by one read-only membership probe, instead of
		// surviving into a derived state only to be removed by a Diff.
		t := ctx.headBuf
		for i, s := range rp.headSlots {
			t[i] = slotValue(s, binding)
		}
		switch {
		case ctx.cnt != nil:
			ctx.cnt.Bump(t, 1)
		case ctx.parts != nil:
			// One emit-time hash serves owner routing, the Bloom prefilter,
			// and both membership probes (bucket dedup + accumulated state).
			h := relation.TupleHash(t)
			b := ctx.parts[h%uint64(len(ctx.parts))]
			if ctx.filter != nil {
				// "Definitely absent" proves the tuple is not in the
				// accumulated state, so only the bucket's own dedup is
				// needed; "maybe present" takes the exact probe, which
				// drops duplicates exactly.
				ctx.fprobes++
				if !ctx.filter.MayContainHash(h) {
					ctx.fskips++
					b.AddHash(t, h)
				} else {
					b.AddNotInHash(t, h, ctx.cur)
				}
			} else {
				b.AddNotInHash(t, h, ctx.cur)
			}
		case ctx.filter != nil:
			// Unpartitioned frontier pass fronted by the accumulated-state
			// Bloom summary (see frontier.go): same protocol as the
			// exchange path, minus the owner routing.
			h := relation.TupleHash(t)
			ctx.fprobes++
			if !ctx.filter.MayContainHash(h) {
				ctx.fskips++
				ctx.out.AddHash(t, h)
			} else {
				ctx.out.AddNotInHash(t, h, ctx.cur)
			}
		default:
			ctx.out.AddNotIn(t, ctx.cur)
		}
		return
	}
	st := ep.steps[si]
	switch st.kind {
	case stepJoin:
		in.runJoin(rp, ctx, ep, si, binding)

	case stepExtend:
		for v := 0; v < ctx.usize; v++ {
			binding[st.idx] = v
			in.run(rp, ctx, ep, si+1, binding)
		}
		binding[st.idx] = -1

	case stepBindEq:
		c := rp.cmps[st.idx]
		// Exactly one side is unbound by plan construction.
		lv, rv := slotValue(c.left, binding), slotValue(c.right, binding)
		var target slot
		var val int
		if lv < 0 {
			target, val = c.left, rv
		} else {
			target, val = c.right, lv
		}
		binding[target.val] = val
		in.run(rp, ctx, ep, si+1, binding)
		binding[target.val] = -1

	case stepCmp:
		c := rp.cmps[st.idx]
		eq := slotValue(c.left, binding) == slotValue(c.right, binding)
		if eq != c.neq {
			in.run(rp, ctx, ep, si+1, binding)
		}

	case stepNeg:
		np := rp.negatives[st.idx]
		// The scratch buffer is fully consumed by Has before any
		// deeper step reuses it.
		t := ctx.negBuf[:len(np.slots)]
		for i, s := range np.slots {
			t[i] = slotValue(s, binding)
		}
		if !ctx.neg[st.idx].Has(t) {
			in.run(rp, ctx, ep, si+1, binding)
		}
	}
}

// runJoin enumerates the candidate tuples of a positive literal — its
// base relation minus what the overlay takes out, then what the overlay
// puts in — and extends the binding per match.
func (in *Instance) runJoin(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int) {
	je := ep.steps[si].join
	src := ctx.pos[je.lit]
	for i, s := range je.probeSrc {
		je.probeVals[i] = slotValue(s, binding)
	}
	in.joinRel(rp, ctx, ep, si, binding, src.Base, src.Minus, je.shardLo, je.shardHi)
	// Shard ranges partition the base's arena; the first shard takes Plus.
	if src.Plus != nil && je.shardLo == 0 {
		in.joinRel(rp, ctx, ep, si, binding, src.Plus, nil, 0, 0)
	}
}

// joinRel enumerates rel's candidates for a join step whose probe
// values are filled in — by one membership probe when every column is
// bound, through the step's index probe when some are, by arena scan
// otherwise — restricted to the arena offsets [lo, hi) unless hi is 0,
// skipping the tuples minus holds.  The per-tuple work is the step's
// compiled micro-op array; together with the probe this loop performs
// no allocation (see BenchmarkJoinAllocs).
func (in *Instance) joinRel(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int, rel, minus *relation.Relation, lo, hi int32) {
	if rel.Empty() {
		return
	}
	je := ep.steps[si].join
	if len(je.probeCols) > 0 {
		if je.member {
			// The probe names the whole tuple: the relation's own key table
			// answers it, where an index on every column would hold one
			// bucket per tuple.
			off := rel.OffsetOf(je.probeVals)
			if off >= 0 && (hi == 0 || (off >= lo && off < hi)) && (minus == nil || !minus.Has(rel.At(off))) {
				in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
			}
			return
		}
		var offs []int32
		if len(je.probeCols) == 1 {
			offs = rel.Lookup(je.probeCols[0], je.probeVals[0])
		} else {
			offs = rel.LookupCols(je.probeCols, je.probeVals)
		}
		if hi > 0 {
			offs = relation.OffsetsInRange(offs, lo, hi)
		}
		for _, off := range offs {
			if t := rel.At(off); minus == nil || !minus.Has(t) {
				in.matchTuple(rp, ctx, ep, si, binding, je, t)
			}
		}
		return
	}
	if hi == 0 {
		hi = int32(rel.Len())
	}
	for off := lo; off < hi; off++ {
		if t := rel.At(off); minus == nil || !minus.Has(t) {
			in.matchTuple(rp, ctx, ep, si, binding, je, t)
		}
	}
}

// matchTuple runs a join step's micro-ops against one candidate tuple,
// recursing into the rest of the plan on success.  bindVars lists
// exactly the variables the ops may bind — all unbound on entry — so
// resetting them unconditionally afterwards is correct even when a
// check fails midway.
func (in *Instance) matchTuple(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int, je *joinExec, t relation.Tuple) {
	ok := true
	for _, op := range je.ops {
		v := t[op.col]
		switch op.kind {
		case opBind:
			binding[op.arg] = v
		case opCheckVar:
			if binding[op.arg] != v {
				ok = false
			}
		case opCheckConst:
			if v != int(op.arg) {
				ok = false
			}
		}
		if !ok {
			break
		}
	}
	if ok {
		in.run(rp, ctx, ep, si+1, binding)
	}
	for _, v := range je.bindVars {
		binding[v] = -1
	}
}
