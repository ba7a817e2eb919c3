package engine

import (
	"maps"
	"runtime"
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
//
// cur, when non-nil, is a pooled worker's filter, Into's relation:
// emissions already in it are dropped at emit (Relation.AddNotIn).
//
// probe holds each join's probe values at the join's probeOff, so the
// shared compiled plan carries no per-run state; shardLit is the
// literal whose enumeration the task restricts to the arena range
// [shardLo, shardHi), -1 when the task is unsharded.
type evalCtx struct {
	pos              []Overlay
	neg              []Overlay
	out              *relation.Relation
	cur              *relation.Relation
	usize            int
	headBuf          relation.Tuple
	negBuf           relation.Tuple
	probe            []int
	shardLit         int
	shardLo, shardHi int32
}

// evalTask is one unit of parallel work: a rule plan plus optional
// per-literal source overrides (the delta and Within tasks).  pos[i],
// when its Base is set, overrides what the i-th positive literal reads,
// neg[j] what the j-th negated literal is checked against; either slice
// may be shorter than the rule's literals, nil for none.
//
// driver is the positive-literal index whose relation drives the task
// (a delta, or the Within filter); -1 when the task has no
// distinguished driver.  It is the preferred split target for
// intra-rule sharding.  A sharded task restricts the enumeration of
// literal shardLit to the arena range [shardLo, shardHi); shardHi == 0
// means the task is unsharded.
type evalTask struct {
	rp               *rulePlan
	pos              []Overlay
	neg              []Overlay
	driver           int
	shardLit         int
	shardLo, shardHi int32
}

// Spec describes one evaluation pass: which derivations it enumerates,
// what their literals read, and which it keeps.  The zero value of
// every field but Pos is "no restriction".
//
// Positive IDB literals read Pos and negated IDB literals are checked
// against Neg; a nil Neg reads Pos.  EDB literals read the database.
// With Neg = Pos the pass is Θ; with Neg held fixed it is the monotone
// operator whose least fixpoint is the Gelfond–Lifschitz style Γ(Neg)
// of the well-founded alternating fixpoint.
//
// Deltas restricts the pass to the derivations driven by at least one
// delta (see Delta); Within restricts it to the rules whose head
// predicate it names and to derivations whose head tuple lies in that
// relation — the rederivation step of DRed.  The two are exclusive.
//
// Into, when set, is the state the pass extends: it must hold a
// relation for every IDB predicate, and the pass appends to it every
// derived tuple it lacks (frontier.go).  Literals read Pos and Neg as
// they stood when the pass began: Into may name their relations, read
// through views Eval takes.  Deltas and Within may name ranges of
// Into's relations (Relation.Since), not the relations.
type Spec struct {
	Pos, Neg State
	Deltas   map[string]Delta
	Within   map[string]*relation.Relation
	Into     State
}

// Apply computes Θ(S̄): the relations derived from the database and s by
// one parallel application of all rules.  Apply never reads its output
// while deriving, so it is the paper's simultaneous operator.
func (in *Instance) Apply(s State) State { return in.Eval(Spec{Pos: s}) }

// Eval runs the pass sp describes and returns its derivations: a fresh
// state, or with Into the ranges it appended to Into's relations
// (Relation.Since), those that gained nothing left out.  A small pass
// runs on the calling goroutine (see InlineFloor), straight into Into
// when set; a larger one across a worker pool (see runPool).  Lazy
// index construction inside Relation is internally synchronized.  Eval
// panics if sp sets both Deltas and Within.
func (in *Instance) Eval(sp Spec) State {
	tasks := in.tasks(sp)
	if sp.Into != nil && len(tasks) == 0 {
		return nil
	}
	marks := make([]int, 0, 16) // Into's pass-start lengths, per IDB predicate
	negIsPos := sp.Neg == nil
	if sp.Into != nil {
		for _, pred := range in.idbList {
			marks = append(marks, sp.Into[pred].Len())
		}
		sp.Pos, sp.Neg = atStart(sp.Pos, sp.Into), atStart(sp.Neg, sp.Into)
	}
	if negIsPos {
		sp.Neg = sp.Pos
	}
	tasks, nw := in.schedule(tasks, sp.Pos)
	into := sp.Into
	if nw <= 1 {
		if into == nil {
			into = in.NewState()
		}
		for _, t := range tasks {
			in.evalRule(t, &sp, into, nil)
		}
	} else {
		outs := in.runPool(sp, tasks, nw)
		if into == nil {
			into, outs = outs[0], outs[1:]
		}
		for i := range outs {
			into.UnionWith(outs[i])
			outs[i] = nil
		}
	}
	if sp.Into == nil {
		return into
	}
	var grown State
	for i, pred := range in.idbList {
		if r := into[pred]; r.Len() > marks[i] {
			if grown == nil {
				grown = make(State)
			}
			grown[pred] = r.Since(marks[i])
		}
	}
	return grown
}

// atStart returns s with every relation of into it names replaced by a
// view of the relation as it stands (Relation.Since(0)): what a pass
// appending to into reads of s.
func atStart(s, into State) State {
	out, cloned := s, false
	for pred, r := range s {
		if r == into[pred] {
			if !cloned {
				out, cloned = maps.Clone(s), true
			}
			out[pred] = r.Since(0)
		}
	}
	return out
}

// SemiNaive is the Spec of a semi-naive round: the subset of Θ(cur)
// derivable by rule applications that use at least one tuple of delta
// in a positive IDB literal, negated IDB literals checked against neg
// (nil: cur).  old must be the previous stage (cur = old ∪ delta):
// every IDB predicate drives its positive literals with its delta,
// literals before the driver read old, literals after it cur.  Rules
// without positive IDB literals contribute nothing (see the package
// comment).
func SemiNaive(old, delta, cur, neg State) Spec {
	sp := Spec{Pos: cur, Neg: neg, Deltas: make(map[string]Delta, len(delta))}
	for pred, d := range delta {
		sp.Deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: old[pred]}}
	}
	return sp
}

// tasks compiles sp into evaluation tasks: one per rule for a full
// pass, else the tasks of its Deltas or its Within filter (delta.go).
func (in *Instance) tasks(sp Spec) []evalTask {
	switch {
	case sp.Deltas != nil && sp.Within != nil:
		panic("engine: a Spec sets both Deltas and Within")
	case sp.Deltas != nil:
		return in.deltaTasks(sp.Deltas)
	case sp.Within != nil:
		return in.withinTasks(sp.Within)
	}
	tasks := make([]evalTask, len(in.plans))
	for i, rp := range in.plans {
		tasks[i] = evalTask{rp: rp, driver: -1}
	}
	return tasks
}

// InlineFloor is the driver work below which a pass runs on the calling
// goroutine: no worker goroutines, no shards, one output and no merge.
// A pass's driver work is the number of tuples its tasks enumerate
// first, summed over the tasks: each task's semi-naive delta, or the
// literal the planner would start from (see driverWork).  Below the
// floor, handing the pass to the pool and merging the per-worker
// outputs costs more than the parallel enumeration saves.  The value
// comes from one sweep of the eval-batch workload, which README's
// "The inline floor" section reports.
const InlineFloor = 4096

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

// schedule decides once per pass where its tasks run: it returns the
// tasks and the number of workers, 1 for the calling goroutine.  A pass
// whose driver work is under InlineFloor, or that has one task and no
// shards, or a process with GOMAXPROCS 1, runs inline.  Otherwise the
// pool is GOMAXPROCS wide; with fewer tasks than workers, tasks are
// first split into arena-range shards of their driver relation (see
// expandShards), so even a two-rule program keeps every core busy.
func (in *Instance) schedule(tasks []evalTask, pos State) ([]evalTask, int) {
	nw := runtime.GOMAXPROCS(0)
	if nw > 1 && in.driverWork(tasks, pos) < InlineFloor {
		return tasks, 1
	}
	if nw > len(tasks) && len(tasks) > 0 {
		tasks = in.expandShards(tasks, pos, nw)
	}
	return tasks, min(nw, len(tasks))
}

// runPool evaluates tasks on nw goroutines, each deriving into a
// private output filtered against sp.Into, and returns the outputs;
// Eval merges them by set union, so the result is bit-exact regardless
// of worker count or scheduling order.
func (in *Instance) runPool(sp Spec, tasks []evalTask, nw int) []State {
	outs := make([]State, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(w int) {
			defer wg.Done()
			out := in.NewState()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				in.evalRule(tasks[i], &sp, out, sp.Into)
			}
			outs[w] = out
		}(w)
	}
	wg.Wait()
	return outs
}

// driverWork is a pass's driver work (see InlineFloor): the tuples of
// the relation each task enumerates first, as shardTarget resolves it,
// summed over the tasks.
func (in *Instance) driverWork(tasks []evalTask, pos State) int {
	n := 0
	for _, t := range tasks {
		if _, rel := in.shardTarget(t, pos); rel != nil {
			n += rel.Len()
		}
	}
	return n
}

// IsFixpoint reports whether Θ(S̄) = S̄, i.e. whether s is a fixpoint of
// (π, D) in the paper's sense.
func (in *Instance) IsFixpoint(s State) bool {
	return in.Apply(s).Equal(s)
}

// evalScratch is the reusable per-rule evaluation state: the context
// struct, its scratch tuples and source slices, the variable binding
// array, and the planner's bound set, used set and join order.
// evalRule checks one out of the pool per call and returns it cleared,
// so the steady state of a fixpoint loop allocates nothing here
// regardless of round count.
type evalScratch struct {
	ctx         evalCtx
	binding     []int
	bound, used []bool
	order       []int
}

// growSlice resizes a scratch slice to n, reallocating only past the
// high-water mark of previous rules.  A reallocation holds at least 64
// elements, which puts it in a size class of whole cache lines: a run
// writes these buffers per tuple while the pool's other workers read
// the shared compiled plans, and a buffer sharing a cache line with a
// plan would evict that line from their caches at every write.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 64))
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
	sc.bound = growSlice(sc.bound, rp.nvars)
	sc.used = growSlice(sc.used, len(rp.positives))
	sc.order = growSlice(sc.order, len(rp.positives))
	for i := range sc.binding {
		sc.binding[i] = -1
	}
	return sc
}

// putScratch returns a scratch to the pool, dropping every relation
// reference so pooled entries never pin last round's states.
func (in *Instance) putScratch(sc *evalScratch) {
	ctx := &sc.ctx
	ctx.out, ctx.cur = nil, nil
	for i := range ctx.pos {
		ctx.pos[i] = Overlay{}
	}
	for i := range ctx.neg {
		ctx.neg[i] = Overlay{}
	}
	scratchPool.Put(sc)
}

// evalRule evaluates one task's rule plan into out, dropping what
// filter holds (nil: nothing): sp.Pos resolves positive IDB literals,
// sp.Neg negated ones, unless the task overrides the literal (see
// source).
func (in *Instance) evalRule(task evalTask, sp *Spec, out, filter State) {
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
	ctx.out, ctx.cur = out[rp.headPred], filter[rp.headPred]
	for i, lp := range rp.positives {
		ctx.pos[i] = in.source(task.pos, i, lp, sp.Pos)
	}
	for i, np := range rp.negatives {
		ctx.neg[i] = in.source(task.neg, i, np, sp.Neg)
	}
	ctx.shardLit, ctx.shardLo, ctx.shardHi = -1, 0, 0
	if task.shardHi > 0 {
		ctx.shardLit, ctx.shardLo, ctx.shardHi = task.shardLit, task.shardLo, task.shardHi
	}
	// Order against the resolved relations: the planner sees the actual
	// sizes of this task's sources (deltas included), so join orders are
	// re-costed every round; the order's compiled plan is cached.
	joinOrder(rp, ctx.pos, ctx.shardLit, sc.bound, sc.used, sc.order)
	ep := rp.plan(sc.order)
	ctx.probe = growSlice(ctx.probe, ep.nprobe)
	in.run(rp, ctx, ep, 0, sc.binding)
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
		// Fill the scratch head buffer; AddNotIn copies it only when
		// actually stored.  ctx.out dedups it by its own key table, and
		// a pooled worker's ctx.cur drops what Into already holds.
		t := ctx.headBuf
		for i, s := range rp.headSlots {
			t[i] = slotValue(s, binding)
		}
		ctx.out.AddNotIn(t, ctx.cur)
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
	vals := ctx.probe[je.probeOff : je.probeOff+len(je.probeCols)]
	for i, s := range je.probeSrc {
		vals[i] = slotValue(s, binding)
	}
	var lo, hi int32
	if je.lit == ctx.shardLit {
		lo, hi = ctx.shardLo, ctx.shardHi
	}
	in.joinRel(rp, ctx, ep, si, binding, src.Base, src.Minus, vals, lo, hi)
	// Shards partition the base's arena range; the first takes Plus.
	if first, _ := src.Base.Span(); src.Plus != nil && (hi == 0 || lo == first) {
		in.joinRel(rp, ctx, ep, si, binding, src.Plus, nil, vals, 0, 0)
	}
}

// joinRel enumerates rel's candidates for a join step whose probe
// values are vals — by one membership probe when every column is
// bound, through the step's index probe when some are, by arena scan
// otherwise — restricted to the arena offsets [lo, hi) unless hi is 0,
// skipping the tuples minus holds.  Offsets are the arena's: a range
// view's start past 0.  The per-tuple work is the step's
// compiled micro-op array; together with the probe this loop performs
// no allocation (see BenchmarkJoinAllocs).
func (in *Instance) joinRel(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int, rel, minus *relation.Relation, vals []int, lo, hi int32) {
	if rel.Empty() {
		return
	}
	je := ep.steps[si].join
	if len(je.probeCols) > 0 {
		if je.member {
			// The probe names the whole tuple: the relation's own key table
			// answers it, where an index on every column would hold one
			// bucket per tuple.
			off := rel.OffsetOf(vals)
			if off >= 0 && (hi == 0 || (off >= lo && off < hi)) && (minus == nil || !minus.Has(rel.At(off))) {
				in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
			}
			return
		}
		offs := rel.LookupCols(je.probeCols, vals)
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
		lo, hi = rel.Span()
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
