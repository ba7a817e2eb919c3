// delta.go — generalized delta evaluation for incremental maintenance.
//
// The semi-naive loop, counting maintenance, and DRed-style
// delete/rederive all need the same primitive: "the derivations of
// Θ whose body touches a given change", for changes to arbitrary
// predicates (EDB or IDB), driving positive literals (a tuple the
// literal can newly/no-longer read) or negated literals (a tuple whose
// arrival/departure flips the check).  A Spec's Deltas names that
// primitive (SemiNaive is its IDB-insert special case); its Within
// restricts evaluation to a candidate head set (the rederivation step
// of DRed); Count returns exact derivation counts (the counting
// algorithm).
//
// Each qualifying derivation is enumerated exactly once: the literal
// positions a change can drive are ordered (positives in body order,
// then negatives), and the variant whose driver is at position v forces
// positions before v to be non-drivers.  "Non-driver" reads come from
// the Delta's Before/BeforeNeg overlays when the caller provides them
// — exact counting needs them — and fall back to the after-driver
// relations otherwise, which can enumerate a derivation once per driver
// it contains; harmless for set-valued passes.
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
type Overlay struct {
	Base, Minus, Plus *relation.Relation
}

// Has reports whether the overlaid relation holds t.
func (o *Overlay) Has(t relation.Tuple) bool {
	if o.Base.Has(t) {
		return o.Minus == nil || !o.Minus.Has(t)
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
// BeforeNeg / AfterNeg (or, when unset, the Spec's Neg state).  A
// predicate whose positive and negated literals read different states
// (a Γ stage of the alternating fixpoint: own state and the frozen one)
// sets only the fields of the side that changed.
type Delta struct {
	PosDriver *relation.Relation
	NegDriver *relation.Relation
	Before    Overlay
	BeforeNeg Overlay
	After     Overlay
	AfterNeg  Overlay
}

// withinTasks compiles a Within pass: every rule whose head predicate
// has a non-empty filter relation gets it as an extra positive literal
// over the head's argument slots, the task's driver, so the join
// planner starts from the (small) filter set and evaluates the body
// with the head variables bound.
func (in *Instance) withinTasks(within map[string]*relation.Relation) []evalTask {
	var tasks []evalTask
	for _, rp := range in.plans {
		if f := within[rp.headPred]; f != nil && !f.Empty() {
			rp2, lit := withLit(rp, litPlan{pred: rp.headPred, slots: rp.headSlots})
			tasks = append(tasks, evalTask{rp: rp2, pos: map[int]Overlay{lit: {Base: f}}, driver: lit})
		}
	}
	return tasks
}

// withLit returns a copy of rp with l appended to its positive
// literals, and l's index there; rp itself is left untouched.
func withLit(rp *rulePlan, l litPlan) (*rulePlan, int) {
	rp2 := *rp
	n := len(rp.positives)
	rp2.positives = append(rp.positives[:n:n], l)
	return &rp2, n
}

// flipNeg returns a variant of rp where the j-th negated literal is
// evaluated as a positive join (its relation supplied by an override on
// the returned literal index) and dropped from the negation checks.
func flipNeg(rp *rulePlan, j int) (*rulePlan, int) {
	rp2, lit := withLit(rp, rp.negatives[j])
	rp2.negatives = append(rp.negatives[:j:j], rp.negatives[j+1:]...)
	return rp2, lit
}

// deltaTasks compiles the (rule, driver-position) variants of a delta
// pass.  Positions are ranked positives-then-negatives in body order;
// the variant with its driver at rank v overrides earlier
// delta-predicate positions with their Before/BeforeNeg relations and
// later ones with After/AfterNeg, nil falling through as documented on
// Delta.
func (in *Instance) deltaTasks(deltas map[string]Delta) []evalTask {
	var tasks []evalTask
	for _, rp := range in.plans {
		type driver struct {
			flip bool // negated-literal driver
			idx  int  // literal index within its kind
			rank int  // global position rank
		}
		var drivers []driver
		for i, lp := range rp.positives {
			if d, ok := deltas[lp.pred]; ok && d.PosDriver != nil {
				drivers = append(drivers, driver{idx: i, rank: i})
			}
		}
		for j, np := range rp.negatives {
			if d, ok := deltas[np.pred]; ok && d.NegDriver != nil {
				drivers = append(drivers, driver{flip: true, idx: j, rank: len(rp.positives) + j})
			}
		}
		for _, dv := range drivers {
			rp2, driverLit := rp, dv.idx // driverLit: positive-literal index of the driver
			if dv.flip {
				rp2, driverLit = flipNeg(rp, dv.idx)
			}
			posOv := make(map[int]Overlay)
			negOv := make(map[int]Overlay)
			for i, lp := range rp.positives {
				d, ok := deltas[lp.pred]
				if !ok {
					continue
				}
				switch {
				case !dv.flip && i == dv.idx:
					posOv[i] = Overlay{Base: d.PosDriver}
				case i < dv.rank:
					if r := coalesce(d.Before, d.After); r.Base != nil {
						posOv[i] = r
					}
				default:
					if d.After.Base != nil {
						posOv[i] = d.After
					}
				}
			}
			for j, np := range rp.negatives {
				if dv.flip && j == dv.idx {
					continue
				}
				d, ok := deltas[np.pred]
				if !ok {
					continue
				}
				j2 := j
				if dv.flip && j > dv.idx {
					j2 = j - 1
				}
				if len(rp.positives)+j < dv.rank {
					if r := coalesce(d.BeforeNeg, d.AfterNeg); r.Base != nil {
						negOv[j2] = r
					}
				} else if d.AfterNeg.Base != nil {
					negOv[j2] = d.AfterNeg
				}
			}
			if dv.flip {
				posOv[driverLit] = Overlay{Base: deltas[rp.negatives[dv.idx].pred].NegDriver}
			}
			tasks = append(tasks, evalTask{rp: rp2, pos: posOv, neg: negOv, driver: driverLit})
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
