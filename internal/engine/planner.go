// planner.go — ordering and access-path selection for rule bodies.
//
// The join order is chosen per pass, once per (rule, task): the planner
// sees the actual relations each positive literal will read — including
// the small delta relations substituted by the semi-naive variants — so
// join orders are re-costed every fixpoint round.  The compiled plan is
// a function of the order alone and is cached on the rule per order, so
// a pass that picks an order an earlier pass picked compiles nothing.
// Each join of a plan is an access path (a membership probe when every
// argument position is bound, else the widest composite index covering
// the bound ones, or a scan) plus a flat array of bind/check micro-ops
// executed per candidate tuple; the micro-ops replace the generic
// per-tuple matching closure, so the probe loop allocates nothing.
// A plan holds no per-run state — probe values live in the run's
// scratch — so concurrent passes on one instance share it.
//
// The cost model is the textbook independence estimate: joining a
// literal whose relation holds |R| tuples with bound columns B is
// expected to match |R| / Π_{c∈B} distinct(R, c) tuples.  The greedy
// planner repeatedly picks the literal with the smallest estimate
// (ties to program order), which starts rules at their most selective
// literal — in particular at a semi-naive delta relation when one is
// present.  Comparison and negation checks run as soon as their
// variables are bound, equality propagation and universe enumeration
// bind whatever remains, one variable-disjoint component of the body
// after another: a pass emits the product of their head projections
// (eval.go).  The plan fixes only the join order, the access paths and
// the split, so every plan derives exactly Θ's set.
package engine

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/relation"
)

// stepKind enumerates the operations of a rule's evaluation plan.
type stepKind int

const (
	stepJoin   stepKind = iota // join the idx-th positive literal
	stepExtend                 // enumerate the universe for variable idx
	stepBindEq                 // bind a variable via the idx-th equality
	stepCmp                    // check the idx-th comparison
	stepNeg                    // check the idx-th negated literal
)

// execStep is one operation of a compiled plan; idx indexes into the
// rule-plan component named by kind, and join carries the compiled
// access path for stepJoin.
type execStep struct {
	kind stepKind
	idx  int
	join *joinExec
}

// execPlan is a rule body ordered and compiled for one join order of
// its positive literals.  It is written only while it is built;
// concurrent passes then share it from the rule's cache.
type execPlan struct {
	order  []int // positive-literal indexes in join order: the cache key
	steps  []execStep
	nprobe int        // probe values of all joins: the scratch a run needs
	comps  []compExec // the variable-disjoint components, in step order
}

// compExec is one component of a plan: its steps end at step end; head
// holds the head variables it binds, levels its level literals.
type compExec struct {
	end    int
	head   []slot
	levels []int
}

// maxPlans caps a rule's plan cache.  A body of k positive literals has
// k! join orders; the planner meets few of them, and past the cap a
// plan is compiled per pass instead of lengthening every lookup.
const maxPlans = 16

// opKind enumerates the per-tuple micro-ops of a join.
type opKind uint8

const (
	opBind       opKind = iota // binding[arg] = t[col]
	opCheckVar                 // require t[col] == binding[arg]
	opCheckConst               // require t[col] == arg
)

// joinOp is one bind or check against a candidate tuple.
type joinOp struct {
	kind opKind
	col  int32
	arg  int32
}

// joinExec is the compiled form of one join step: how to enumerate
// candidate tuples and what to do with each.
type joinExec struct {
	lit       int      // index into rulePlan.positives
	probeCols []int    // bound columns probed via an index; empty = scan
	probeSrc  []slot   // value sources for probeCols
	probeOff  int      // where the probe values sit in the run's scratch
	member    bool     // probeCols is every column: one membership probe, no index
	ops       []joinOp // per-tuple micro-ops, in column order
	bindVars  []int    // variables newly bound by this literal
}

// estimateJoin scores a candidate join under the current bound set:
// the expected number of tuples matching the bound columns, assuming
// independent uniformly distributed columns.
func estimateJoin(rel *relation.Relation, lp litPlan, bound []bool) float64 {
	est := float64(rel.Len())
	if est == 0 {
		return 0
	}
	for j, s := range lp.slots {
		if s.isConst || bound[s.val] {
			if d := rel.Distinct(j); d > 1 {
				est /= float64(d)
			}
		}
	}
	return est
}

// compileJoin lowers one join into an access path plus micro-ops:
// every bound column joins the composite-index probe, unbound variables
// compile to binds on first occurrence and checks on repeats.
func compileJoin(rp *rulePlan, lit int, bound []bool) *joinExec {
	lp := rp.positives[lit]
	je := &joinExec{lit: lit}
	newly := make([]bool, rp.nvars)
	for j, s := range lp.slots {
		switch {
		case s.isConst || bound[s.val]:
			je.probeCols = append(je.probeCols, j)
			je.probeSrc = append(je.probeSrc, s)
		case newly[s.val]:
			je.ops = append(je.ops, joinOp{opCheckVar, int32(j), int32(s.val)})
		default:
			newly[s.val] = true
			je.ops = append(je.ops, joinOp{opBind, int32(j), int32(s.val)})
			je.bindVars = append(je.bindVars, s.val)
		}
	}
	je.member = len(je.probeCols) > 0 && len(je.probeCols) == len(lp.slots)
	return je
}

// cheapestJoin returns the unused positive literal with the smallest
// estimate under the bound set (ties to program order), -1 when none
// is left.  A lone candidate wins whatever its estimate, so it is not
// estimated: the estimate's Distinct can build an index on a fresh
// delta just to compare one candidate with nothing.
func cheapestJoin(rp *rulePlan, rels []Overlay, bound, used []bool) int {
	best, left := -1, 0
	for i := range rp.positives {
		if !used[i] {
			best, left = i, left+1
		}
	}
	if left <= 1 {
		return best
	}
	best, bestCost := -1, math.Inf(1)
	for i, lp := range rp.positives {
		if used[i] {
			continue
		}
		if c := estimateJoin(rels[i].Base, lp, bound); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// joinOrder writes into order (one entry per positive literal) the join
// order the greedy planner picks against the concrete sources rels
// (parallel to rp.positives); an overlaid source is costed by its base
// relation, whose statistics and indexes the join then uses.  bound and
// used are scratch of rp.nvars and len(rp.positives) entries.
func joinOrder(rp *rulePlan, rels []Overlay, bound, used []bool, order []int) {
	clear(bound)
	clear(used)
	for k := range order {
		best := cheapestJoin(rp, rels, bound, used)
		used[best] = true
		order[k] = best
		bindSlots(bound, rp.positives[best].slots)
	}
}

// bindSlots marks the variables among slots bound.
func bindSlots(bound []bool, slots []slot) {
	for _, s := range slots {
		if !s.isConst {
			bound[s.val] = true
		}
	}
}

// plan returns the compiled plan for a join order, from the rule's
// cache when an earlier pass compiled it.  Readers take no lock: the
// cache is a copy-on-write slice that writers replace by
// compare-and-swap, and a published plan is never written again.
func (rp *rulePlan) plan(order []int) *execPlan {
	var ep *execPlan
	for {
		old := rp.plans.Load()
		var cached []*execPlan
		if old != nil {
			cached = *old
		}
		for _, c := range cached {
			if slices.Equal(c.order, order) {
				return c
			}
		}
		if ep == nil {
			ep = buildExec(rp, order)
		}
		if len(cached) >= maxPlans {
			return ep
		}
		next := append(cached[:len(cached):len(cached)], ep)
		if rp.plans.CompareAndSwap(old, &next) {
			return ep
		}
	}
}

// components labels each variable of rp with its body component: a
// literal or comparison links its variables, constants link nothing,
// and a head variable no body literal names is a component of its own.
func (rp *rulePlan) components() {
	rp.comp = make([]int, rp.nvars)
	for v := range rp.comp {
		rp.comp[v] = v
	}
	link := func(slots ...slot) {
		for _, s := range slots {
			if from, to := rp.compOf([]slot{s}), rp.compOf(slots); from >= 0 {
				for v, c := range rp.comp {
					if c == from {
						rp.comp[v] = to
					}
				}
			}
		}
	}
	for _, lp := range slices.Concat(rp.positives, rp.negatives) {
		link(lp.slots...)
	}
	for _, c := range rp.cmps {
		link(c.left, c.right)
	}
}

// compOf is the component of a literal's variables, -1 if it has none.
func (rp *rulePlan) compOf(slots []slot) int {
	for _, s := range slots {
		if !s.isConst {
			return rp.comp[s.val]
		}
	}
	return -1
}

// buildExec compiles the rule body for a join order of its positive
// literals, per component (ground literals in the first): each join in
// turn, every comparison and negation check as soon as its variables
// are bound, then equality propagation or universe enumeration for the
// variables no join binds.
func buildExec(rp *rulePlan, order []int) *execPlan {
	bound := make([]bool, rp.nvars)
	usedCmp := make([]bool, len(rp.cmps))
	usedNeg := make([]bool, len(rp.negatives))
	ep := &execPlan{order: slices.Clone(order)}

	slotBound := func(s slot) bool { return s.isConst || bound[s.val] }
	allBound := func(slots []slot) bool {
		for _, s := range slots {
			if !slotBound(s) {
				return false
			}
		}
		return true
	}
	// addChecks appends every comparison/negation check whose variables
	// have just become bound.  Comparisons first: they are cheaper.
	addChecks := func() {
		for i, c := range rp.cmps {
			if !usedCmp[i] && slotBound(c.left) && slotBound(c.right) {
				usedCmp[i] = true
				ep.steps = append(ep.steps, execStep{kind: stepCmp, idx: i})
			}
		}
		for i, n := range rp.negatives {
			if !usedNeg[i] && allBound(n.slots) {
				usedNeg[i] = true
				ep.steps = append(ep.steps, execStep{kind: stepNeg, idx: i})
			}
		}
	}
	addChecks()

	seq := slices.Compact(slices.Sorted(slices.Values(rp.comp))) // component ids; -1 alone without variables
	if len(seq) == 0 {
		seq = []int{-1}
	}
	for k, id := range seq {
		var ce compExec
		for _, lit := range order {
			lp := rp.positives[lit]
			if c := rp.compOf(lp.slots); c != id && (c >= 0 || k > 0) {
				continue
			}
			je := compileJoin(rp, lit, bound)
			je.probeOff = ep.nprobe
			ep.nprobe += len(je.probeCols)
			ep.steps = append(ep.steps, execStep{kind: stepJoin, idx: lit, join: je})
			bindSlots(bound, lp.slots)
			if lp.level {
				ce.levels = append(ce.levels, lit)
			}
			addChecks()
		}

		// Extension phase: bind the component's leftover variables,
		// preferring equality propagation over universe enumeration.
		for v := 0; v < rp.nvars; v++ {
			if bound[v] || rp.comp[v] != id {
				continue
			}
			eq := -1
			for i, c := range rp.cmps {
				if c.neq || usedCmp[i] {
					continue
				}
				l, r := c.left, c.right
				if !l.isConst && l.val == v && slotBound(r) {
					eq = i
					break
				}
				if !r.isConst && r.val == v && slotBound(l) {
					eq = i
					break
				}
			}
			if eq >= 0 {
				usedCmp[eq] = true
				ep.steps = append(ep.steps, execStep{kind: stepBindEq, idx: eq})
			} else {
				ep.steps = append(ep.steps, execStep{kind: stepExtend, idx: v})
			}
			bound[v] = true
			addChecks()
		}
		for _, s := range rp.headSlots {
			if !s.isConst && rp.comp[s.val] == id {
				ce.head = append(ce.head, s)
			}
		}
		ce.end = len(ep.steps)
		ep.comps = append(ep.comps, ce)
	}
	return ep
}

// slotString renders a slot with the rule's variable names and the
// universe's constant names.
func (rp *rulePlan) slotString(s slot, u *relation.Universe) string {
	if s.isConst {
		return u.Name(s.val)
	}
	return rp.varNames[s.val]
}

func (rp *rulePlan) atomString(pred string, slots []slot, u *relation.Universe) string {
	out := pred
	if len(slots) == 0 {
		return out
	}
	out += "("
	for i, s := range slots {
		if i > 0 {
			out += ","
		}
		out += rp.slotString(s, u)
	}
	return out + ")"
}

// Explain writes every rule's evaluation plan against the database and
// the IDB relations of s: the chosen literal order, the access path of
// each join (scan, the probed index columns, or "member" for a fully
// bound literal), and the planner's cardinality estimates; a rule of
// k > 1 components says so and where each begins, with its projection.
// Passing the state of a finished evaluation
// shows the steady-state plans; passing NewState() shows the first
// round.
func (in *Instance) Explain(w io.Writer, s State) {
	u := in.db.Universe()
	for ri, rp := range in.plans {
		fmt.Fprintf(w, "rule %d: %s\n", ri+1, rp.src.String())
		rels := make([]Overlay, len(rp.positives))
		for i, lp := range rp.positives {
			rels[i] = in.source(nil, i, lp, s, nil)
		}
		bound, order := make([]bool, rp.nvars), make([]int, len(rp.positives))
		joinOrder(rp, rels, bound, make([]bool, len(rp.positives)), order)
		clear(bound)
		ep, start := buildExec(rp, order), 0
		if len(ep.comps) > 1 {
			fmt.Fprintf(w, "  product of %d components\n", len(ep.comps))
		}
		for c, ce := range ep.comps {
			if len(ep.comps) > 1 {
				fmt.Fprintf(w, "  component %d → %s\n", c+1, cmp.Or(rp.atomString("", ce.head, u), "()"))
			}
			for _, st := range ep.steps[start:ce.end] {
				switch st.kind {
				case stepJoin:
					je := st.join
					lp := rp.positives[st.idx]
					rel := rels[st.idx].Base
					est := estimateJoin(rel, lp, bound)
					bindSlots(bound, lp.slots)
					path := "scan"
					if je.member {
						path = "member"
					} else if len(je.probeCols) > 0 {
						path = fmt.Sprintf("index%v", je.probeCols)
					}
					fmt.Fprintf(w, "  join  %-24s %-10s |rel|=%-8d est=%.3g\n",
						rp.atomString(lp.pred, lp.slots, u), path, rel.Len(), est)
				case stepNeg:
					np := rp.negatives[st.idx]
					fmt.Fprintf(w, "  check ¬%s\n", rp.atomString(np.pred, np.slots, u))
				case stepCmp:
					c := rp.cmps[st.idx]
					op := "="
					if c.neq {
						op = "≠"
					}
					fmt.Fprintf(w, "  check %s %s %s\n", rp.slotString(c.left, u), op, rp.slotString(c.right, u))
				case stepBindEq:
					c := rp.cmps[st.idx]
					fmt.Fprintf(w, "  bind  %s = %s\n", rp.slotString(c.left, u), rp.slotString(c.right, u))
				case stepExtend:
					fmt.Fprintf(w, "  enumerate %s over universe (%d)\n", rp.varNames[st.idx], u.Size())
				}
			}
			start = ce.end
		}
	}
}
