// delta.go — generalized delta evaluation for incremental maintenance.
//
// The semi-naive loop and DRed-style delete/rederive need the same
// primitive: "the derivations of
// Θ whose body touches a given change", for changes to arbitrary
// predicates (EDB or IDB), driving positive literals (a tuple the
// literal can newly/no-longer read) or negated literals (a tuple whose
// arrival/departure flips the check).  A Spec's Deltas names that
// primitive (SemiNaive is its IDB-insert special case); its Within
// restricts evaluation to a candidate head set (the rederivation step
// of DRed).
//
// The literal positions a change can drive are ordered (positives in
// body order, then negatives), and the variant whose driver is at
// position v forces positions before v to be non-drivers.
// "Non-driver" reads of a positive literal come from the Delta's Before
// overlay when the caller provides it, which enumerates each qualifying
// derivation exactly once, and fall back to the after-driver relation
// otherwise, which can enumerate a derivation once per driver it
// contains; harmless for set-valued passes.
package engine

import "repro/internal/relation"

// Overlay names the relation (Base ∖ Minus) ∪ Plus without building it:
// a literal reading one probes Base's own indexes and statistics, skips
// what Minus holds and then probes Plus.  The caller promises
// Minus ⊆ Base and Plus ∩ Base = ∅, so no tuple is met twice.  It is
// how an update's "tuples of both worlds" (the new relation minus what
// was added) and "tuples of either world" (the new relation plus what
// was removed) are read at the cost of the change, not of the
// relation.  Minus and Plus may be nil; a nil Base is "no override".
// A non-zero Below keeps only the Base tuples whose level
// (Relation.Level) lies below it: what a tuple of that level may be
// derived from (semantics.Layer).
type Overlay struct {
	Base, Minus, Plus *relation.Relation
	Below             uint16
}

// Has reports whether the overlaid relation holds t.
func (o *Overlay) Has(t relation.Tuple) bool {
	if off := o.Base.OffsetOf(t); off >= 0 {
		return (o.Minus == nil || !o.Minus.Has(t)) && (o.Below == 0 || o.Base.Level(off) < o.Below)
	}
	return o.Plus != nil && o.Plus.Has(t)
}

// Delta describes how one predicate participates in a delta pass, a
// Spec with Deltas.  The pass returns the tuples derivable by rule
// applications driven by at least one delta: a PosDriver tuple read by
// a positive literal, or a NegDriver tuple matched by a negated literal
// (which is then evaluated as a join over the driver set instead of a
// check).  Any field may be left zero.  For a positive literal over the
// predicate, the evaluation reads PosDriver at the driver position,
// Before strictly before it, and After (or, when unset, the Spec's Pos
// state / the database, like a predicate without an entry) after it.
// For a negated literal, non-driver positions check the literal against
// AfterNeg (or, when unset, the Spec's Neg state).  A
// predicate whose positive and negated literals read different states
// (a Γ stage of the alternating fixpoint: own state and the frozen one)
// sets only the fields of the side that changed.
type Delta struct {
	PosDriver *relation.Relation
	NegDriver *relation.Relation
	Before    Overlay
	After     Overlay
	AfterNeg  Overlay
}

// withinTasks compiles a Within pass: every rule whose head predicate
// has a non-empty filter relation gets it as an extra positive literal
// over the head's argument slots, so the join planner starts from the
// (small) filter set and evaluates the body with the head variables
// bound.
func (in *Instance) withinTasks(within map[string]*relation.Relation) []evalTask {
	filter := func(rp *rulePlan) *relation.Relation {
		if f := within[rp.headPred]; f != nil && !f.Empty() {
			return f
		}
		return nil
	}
	nt, no := 0, 0
	for _, rp := range in.plans {
		if filter(rp) != nil {
			nt, no = nt+1, no+len(rp.positives)+1
		}
	}
	tasks, ovs := make([]evalTask, 0, nt), make([]Overlay, no)
	for _, rp := range in.plans {
		if f := filter(rp); f != nil {
			lit := len(rp.positives)
			pos := ovs[: lit+1 : lit+1]
			ovs = ovs[lit+1:]
			pos[lit] = Overlay{Base: f}
			tasks = append(tasks, evalTask{rp: rp.variant(len(rp.negatives)), pos: pos})
		}
	}
	return tasks
}

// variant returns a delta variant of rp, built on its first use and
// kept: for k < len(rp.negatives) the rule with its k-th negated literal
// evaluated as a positive join (its relation supplied by an override)
// and dropped from the negation checks; for k = len(rp.negatives) the
// rule with its head appended as a positive literal (the Within
// filter).  Either way the new literal is the last positive one.
func (rp *rulePlan) variant(k int) *rulePlan {
	p := &rp.variants[k]
	if v := p.Load(); v != nil {
		return v
	}
	n := len(rp.positives)
	v := &rulePlan{src: rp.src, headPred: rp.headPred, headSlots: rp.headSlots, nvars: rp.nvars, varNames: rp.varNames,
		positives: append(rp.positives[:n:n], litPlan{pred: rp.headPred, slots: rp.headSlots}),
		negatives: rp.negatives, cmps: rp.cmps}
	if k < len(rp.negatives) {
		v.positives[n] = rp.negatives[k]
		v.negatives = append(rp.negatives[:k:k], rp.negatives[k+1:]...)
	}
	p.CompareAndSwap(nil, v)
	return p.Load()
}

// driverAt returns the delta driving rp's literal position r, nil when
// none does.  Positions are ranked positives-then-negatives in body
// order.
func driverAt(rp *rulePlan, deltas map[string]Delta, r int) *relation.Relation {
	if np := len(rp.positives); r >= np {
		return deltas[rp.negatives[r-np].pred].NegDriver
	}
	return deltas[rp.positives[r].pred].PosDriver
}

// deltaTasks compiles the (rule, driver-position) variants of a delta
// pass.  The variant with its driver at rank r overrides earlier
// positive delta-predicate positions with their Before relations and
// later ones with After, and every negated one with AfterNeg, nil
// falling through as documented on Delta.  The pass's overrides are
// windows of one slice, sized before it is filled.
func (in *Instance) deltaTasks(deltas map[string]Delta) []evalTask {
	nt, no := 0, 0
	for _, rp := range in.plans {
		w := len(rp.positives) + len(rp.negatives)
		for r := 0; r < w; r++ {
			if driverAt(rp, deltas, r) != nil {
				nt, no = nt+1, no+w
			}
		}
	}
	tasks, ovs := make([]evalTask, 0, nt), make([]Overlay, no)
	for _, rp := range in.plans {
		np, w := len(rp.positives), len(rp.positives)+len(rp.negatives)
		for r := 0; r < w; r++ {
			drv := driverAt(rp, deltas, r)
			if drv == nil {
				continue
			}
			// lit is the positive literal drv drives: a negated-literal
			// driver is evaluated by a flipped variant, still w literals.
			t, lit := evalTask{rp: rp}, r
			if r >= np {
				t.rp, lit = rp.variant(r-np), np
			}
			k := len(t.rp.positives)
			t.pos, t.neg = ovs[:k:k], ovs[k:w:w]
			ovs = ovs[w:]
			for i, lp := range t.rp.positives {
				d := deltas[lp.pred]
				switch {
				case i == lit:
					t.pos[i] = Overlay{Base: drv}
				case i < r:
					t.pos[i] = coalesce(d.Before, d.After)
				default:
					t.pos[i] = d.After
				}
			}
			for j, nl := range t.rp.negatives {
				t.neg[j] = deltas[nl.pred].AfterNeg
			}
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// coalesce returns the first overlay that is set.
func coalesce(a, b Overlay) Overlay {
	if a.Base != nil {
		return a
	}
	return b
}
