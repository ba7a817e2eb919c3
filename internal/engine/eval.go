package engine

import (
	"sync"

	"repro/internal/relation"
)

// evalCtx carries the relation sources for one rule evaluation: pos[i]
// resolves the i-th positive literal, neg[i] the i-th negated literal,
// each a relation read as is (Base alone) or through an Overlay.
// The sources are resolved once per rule evaluation — they cannot
// change mid-rule — so the join loop never goes through a predicate
// map.  headBuf and negBuf are scratch tuples reused across emissions
// so the hot path allocates only when a genuinely new tuple is stored.
// probe holds each join's probe values at the join's probeOff, so the
// shared compiled plan carries no per-run state.  When out tracks
// levels (levels), lv[i] is the level of the tuple the i-th positive
// literal matched, and an emission is stored at one past the highest of
// its level literals' (Relation.AddLevel).  only, when set, is the
// Within filter of a delta pass: emissions outside it are dropped.
// run stops at step end, there emitting or, with memo set, projecting.
type evalCtx struct {
	pos     []Overlay
	neg     []Overlay
	out     *relation.Relation
	only    *relation.Relation
	levels  bool
	lv      []uint16
	usize   int
	headBuf relation.Tuple
	negBuf  relation.Tuple
	probe   []int
	end     int
	comp    *compExec
	memo    *relation.Relation
}

// evalTask is one rule evaluation of a pass: a rule plan plus optional
// per-literal source overrides (the delta and Within tasks).  pos[i],
// when its Base is set, overrides what the i-th positive literal reads,
// neg[j] what the j-th negated literal is checked against; either slice
// may be shorter than the rule's literals, nil for none.
type evalTask struct {
	rp  *rulePlan
	pos []Overlay
	neg []Overlay
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
// relation — the support check of maintenance.  Without Deltas the
// filter is joined first, binding the head; with them it drops the
// emissions outside it.  Over, when it names an IDB predicate, is what
// the predicate's positive literals read in place of Pos: the
// relation less a set, or below a level (Overlay).
//
// When Into's relation for a head tracks levels (Relation.TrackLevels)
// the pass records, per tuple it emits, one past the highest level of
// the tuples its positive IDB literals matched — EDB tuples count 0 —
// and lowers a present tuple's level to it (Relation.AddLevel).
//
// Into, when set, is the state the pass extends: it must hold a
// relation for every IDB predicate, and the pass appends to it every
// derived tuple it lacks (frontier.go).  Literals read Pos and Neg as
// they stood when the pass began: Into may name their relations, read
// through views Eval takes.  Deltas and Within may name ranges of
// Into's relations (Relation.Since), not the relations.
type Spec struct {
	Pos, Neg State
	Over     map[string]Overlay
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
// (Relation.Since), those that gained nothing left out.  The pass runs
// on the calling goroutine, every emission going straight into its
// output, deduped by that relation's key table.  Concurrent passes on
// one instance may share their inputs: they only read them, and lazy
// index construction inside Relation is internally synchronized.
func (in *Instance) Eval(sp Spec) State {
	tasks := in.tasks(sp)
	if sp.Into == nil {
		// A pass's own output keeps no levels, even after KeepLevels.
		into := make(State, len(in.idbList))
		for _, pred := range in.idbList {
			into[pred] = relation.New(in.arities[pred])
		}
		in.evalTasks(tasks, &sp, into)
		return into
	}
	if len(tasks) == 0 {
		return nil
	}
	marks := make([]int, 0, 16) // Into's pass-start lengths, per IDB predicate
	for _, pred := range in.idbList {
		marks = append(marks, sp.Into[pred].Len())
	}
	negIsPos := sp.Neg == nil
	sp.Pos = atStart(sp.Pos, sp.Into, tasks, true, negIsPos)
	if !negIsPos {
		sp.Neg = atStart(sp.Neg, sp.Into, tasks, false, true)
	}
	in.evalTasks(tasks, &sp, sp.Into)
	var grown State
	for i, pred := range in.idbList {
		if r := sp.Into[pred]; r.Len() > marks[i] {
			if grown == nil {
				grown = make(State)
			}
			grown[pred] = r.Since(marks[i])
		}
	}
	return grown
}

// evalTasks evaluates every task into out, negated IDB literals read
// from sp.Neg, or from sp.Pos when it is nil.
func (in *Instance) evalTasks(tasks []evalTask, sp *Spec, out State) {
	if sp.Neg == nil {
		sp.Neg = sp.Pos
	}
	for _, t := range tasks {
		in.evalRule(t, sp, out)
	}
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
	case sp.Deltas != nil:
		return in.deltaTasks(sp.Deltas)
	case sp.Within != nil:
		return in.withinTasks(sp.Within)
	}
	tasks := make([]evalTask, len(in.plans))
	for i, rp := range in.plans {
		tasks[i] = evalTask{rp: rp}
	}
	return tasks
}

// scratchPool is process-global, not per-instance: a sync.Pool that
// ever sees a Put registers itself with the runtime and is visited by
// every later GC cycle, so per-instance pools make GC cost scale with
// the number of instances ever built — a real tax on workloads like
// demand-driven queries that construct thousands of short-lived
// instances.  A pooled scratch holds no relation (putScratch strips
// every reference), so sharing it across instances is sound.  Relations
// are never pooled: an insert allocates once per arena chunk.
var scratchPool sync.Pool

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
	sc.ctx.lv = growSlice(sc.ctx.lv, len(rp.positives))
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
	ctx.out, ctx.only, ctx.comp, ctx.memo = nil, nil, nil, nil
	for i := range ctx.pos {
		ctx.pos[i] = Overlay{}
	}
	for i := range ctx.neg {
		ctx.neg[i] = Overlay{}
	}
	scratchPool.Put(sc)
}

// evalRule evaluates one task's rule plan into out: sp.Over or sp.Pos
// resolves positive IDB literals, sp.Neg negated ones, unless the task
// overrides the literal (see source).
func (in *Instance) evalRule(task evalTask, sp *Spec, out State) {
	rp := task.rp
	var only *relation.Relation
	if sp.Deltas != nil && sp.Within != nil {
		if only = sp.Within[rp.headPred]; only == nil || only.Empty() {
			return
		}
	}
	maxNeg := 0
	for _, np := range rp.negatives {
		if len(np.slots) > maxNeg {
			maxNeg = len(np.slots)
		}
	}
	sc := in.getScratch(rp, maxNeg)
	ctx := &sc.ctx
	ctx.usize = in.db.Universe().Size()
	ctx.out, ctx.only = out[rp.headPred], only
	ctx.levels = ctx.out.TracksLevels()
	for i, lp := range rp.positives {
		ctx.pos[i] = in.source(task.pos, i, lp, sp.Pos, sp.Over)
	}
	for i, np := range rp.negatives {
		ctx.neg[i] = in.source(task.neg, i, np, sp.Neg, nil)
	}
	// Order against the resolved relations: the planner sees the actual
	// sizes of this task's sources (deltas included), so join orders are
	// re-costed every round; the order's compiled plan is cached.
	joinOrder(rp, ctx.pos, sc.bound, sc.used, sc.order)
	ep := rp.plan(sc.order)
	ctx.probe = growSlice(ctx.probe, ep.nprobe)
	if ctx.end = len(ep.steps); len(ep.comps) == 1 {
		in.run(rp, ctx, ep, 0, sc.binding)
	} else {
		in.product(rp, ctx, ep, sc.binding)
	}
	in.putScratch(sc)
}

// product evaluates each component of ep once into the set of its
// head projections, each at its lowest level, and emits their product:
// nothing when one is empty, even a projection on no head variable.
func (in *Instance) product(rp *rulePlan, ctx *evalCtx, ep *execPlan, binding []int) {
	memos := make([]*relation.Relation, len(ep.comps))
	start := 0
	for i := range ep.comps {
		ctx.comp, ctx.memo, ctx.end = &ep.comps[i], relation.New(len(ep.comps[i].head)), ep.comps[i].end
		ctx.memo.TrackLevels()
		in.run(rp, ctx, ep, start, binding)
		if ctx.memo.Empty() {
			return
		}
		memos[i], start = ctx.memo, ctx.end
	}
	ctx.comp, ctx.memo = nil, nil
	in.emitProduct(rp, ctx, ep, memos, 0, binding)
}

// emitProduct binds the head variables of components k and on to each
// tuple of their projections in turn, with its level as what their
// level literals matched, and emits each full binding through run.
func (in *Instance) emitProduct(rp *rulePlan, ctx *evalCtx, ep *execPlan, memos []*relation.Relation, k int, binding []int) {
	if k == len(memos) {
		in.run(rp, ctx, ep, ctx.end, binding)
		return
	}
	m, ce := memos[k], &ep.comps[k]
	for off, hi := m.Span(); off < hi; off++ {
		for i, v := range m.At(off) {
			binding[ce.head[i].val] = v
		}
		for _, i := range ce.levels {
			ctx.lv[i] = m.Level(off)
		}
		in.emitProduct(rp, ctx, ep, memos, k+1, binding)
	}
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
	if si == ctx.end {
		if ctx.memo != nil {
			ctx.project(binding)
			return
		}
		// Fill the scratch head buffer; Add copies it only when actually
		// stored, and ctx.out dedups it by its own key table.
		t := ctx.headBuf
		for i, s := range rp.headSlots {
			t[i] = slotValue(s, binding)
		}
		switch {
		case ctx.only != nil && !ctx.only.Has(t):
		case ctx.levels:
			ctx.out.AddLevel(t, ctx.headLevel(rp))
		default:
			ctx.out.Add(t)
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
	vals := ctx.probe[je.probeOff : je.probeOff+len(je.probeCols)]
	for i, s := range je.probeSrc {
		vals[i] = slotValue(s, binding)
	}
	in.joinRel(rp, ctx, ep, si, binding, src.Base, src.Minus, src.Below, vals)
	if src.Plus != nil {
		in.joinRel(rp, ctx, ep, si, binding, src.Plus, nil, 0, vals)
	}
}

// project adds binding's projection on ctx.comp to ctx.memo, at the
// highest level its level literals matched (unused without levels).
func (ctx *evalCtx) project(binding []int) {
	t := ctx.headBuf[:len(ctx.comp.head)]
	for i, s := range ctx.comp.head {
		t[i] = binding[s.val]
	}
	lv := uint16(0)
	for _, i := range ctx.comp.levels {
		lv = max(lv, ctx.lv[i])
	}
	ctx.memo.AddLevel(t, lv)
}

// headLevel is the level of an emission: one past the highest level
// its level literals matched, 1 for a rule without any, NoLevel when
// one of them is NoLevel.
func (ctx *evalCtx) headLevel(rp *rulePlan) uint16 {
	lv := uint16(0)
	for i, lp := range rp.positives {
		if lp.level {
			lv = max(lv, ctx.lv[i])
		}
	}
	if lv < relation.NoLevel {
		lv++
	}
	return lv
}

// joinRel enumerates rel's candidates for a join step whose probe
// values are vals — by one membership probe when every column is
// bound, through the step's index probe when some are, by arena scan
// otherwise — skipping the tuples minus holds and, under a non-zero
// level bound below, those whose level is not below it.  Offsets are
// the arena's: a range view's start past 0.  The per-tuple work is the
// step's compiled micro-op array; together with the probe this loop
// performs no allocation (see BenchmarkJoinAllocs).
func (in *Instance) joinRel(rp *rulePlan, ctx *evalCtx, ep *execPlan, si int, binding []int, rel, minus *relation.Relation, below uint16, vals []int) {
	if rel.Empty() {
		return
	}
	je := ep.steps[si].join
	// A candidate's level is read for the bound, or for the head's level.
	levels := below != 0 || ctx.levels && rp.positives[je.lit].level
	if len(je.probeCols) > 0 {
		if je.member {
			// The probe names the whole tuple: the relation's own key table
			// answers it, where an index on every column would hold one
			// bucket per tuple.
			off := rel.OffsetOf(vals)
			if off >= 0 && (minus == nil || !minus.Has(rel.At(off))) && (!levels || ctx.level(je.lit, rel.Level(off), below)) {
				in.matchTuple(rp, ctx, ep, si, binding, je, rel.At(off))
			}
			return
		}
		for _, off := range rel.LookupCols(je.probeCols, vals) {
			if t := rel.At(off); (minus == nil || !minus.Has(t)) && (!levels || ctx.level(je.lit, rel.Level(off), below)) {
				in.matchTuple(rp, ctx, ep, si, binding, je, t)
			}
		}
		return
	}
	lo, hi := rel.Span()
	for off := lo; off < hi; off++ {
		if t := rel.At(off); (minus == nil || !minus.Has(t)) && (!levels || ctx.level(je.lit, rel.Level(off), below)) {
			in.matchTuple(rp, ctx, ep, si, binding, je, t)
		}
	}
}

// level records lv as the level positive literal lit matched and
// reports whether it lies below the bound below, 0 bounding nothing.
func (ctx *evalCtx) level(lit int, lv, below uint16) bool {
	ctx.lv[lit] = lv
	return below == 0 || lv < below
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
