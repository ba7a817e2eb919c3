// layer.go — DRed maintenance of one semipositive layer.
//
// A layer is a stratum of a stratifiable program, or the whole program
// as a Γ stage of the alternating fixpoint (wellfounded.go): rules whose
// negated literals read relations the layer does not change.  Its input
// changes enter as per-predicate net changes and it returns its own,
// which the layer above consumes — insertions acting as deletions
// through negated literals and vice versa.
//
// A pass works on two states: the one the layer's own predicates live
// in, which positive own-predicate literals read and the pass updates,
// and the one negated IDB literals read.  A stratum passes the
// maintained state for both (its negated literals are over lower
// strata, read as EDB); a Γ stage passes its own stage and the stage
// below.  By the time a pass runs, every relation it reads already
// holds the new world; a change carries what entered and what left,
// and the old world is an engine.Overlay on the new relation, so no
// pass allocates in proportion to a relation it does not change.
//
// Every layer is maintained by DRed.  Overdelete everything a disabled
// derivation might have supported, evaluated in the old world: the
// layer's own relations before anything is removed from them, and its
// changed inputs through their old-world overlays.  That leaves a state
// certainly below the new fixpoint, and within a layer Θ's iteration
// reaches the least fixpoint from any such state, so the rest is
// iteration upwards: one head-filtered pass (an engine.Spec's Within)
// returns the overdeleted tuples the reduced state still derives in one
// step, and they join the update's insertions as seeds of the ordinary
// semi-naive propagation, which finds everything further.  The
// layer's net change is then read off the sets in hand — overdeleted
// and not back, appended and not overdeleted — instead of diffing
// relations.  An overdelete that outgrows the layer (reevalShare) is
// abandoned and the layer re-evaluated, its difference written in place
// and returned as its net change, exactly what DRed would have produced.
package semantics

import (
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
)

// reevalShare: a layer whose overdelete holds more than 1/reevalShare of
// its tuples is re-evaluated.  DRed touches each overdeleted tuple about
// three times (overdelete, rederive probe, re-insert), re-evaluation
// each layer tuple about once; a quarter, not a third, also pays for
// the overdelete passes spent before giving up.
const reevalShare = 4

// Change is one predicate's net change: the tuples that entered (Add)
// and left (Del) the relation Cur, which already holds the new world.
// Every other world a pass reads is an overlay on Cur.
type Change struct {
	Add, Del, Cur *relation.Relation
	// NegOnly marks the change of the state a Γ stage's negated IDB
	// literals are frozen against: it drives those literals alone, the
	// positive literals of the same predicate read the stage's own state.
	NegOnly bool
}

// old is the relation before the change: Cur ∖ Add ∪ Del.
func (c *Change) old() engine.Overlay {
	return engine.Overlay{Base: c.Cur, Minus: c.Add, Plus: c.Del}
}

// diff is the change that takes old to now — what entered and what
// left, current in now — or nil when the two are equal.
func diff(old, now *relation.Relation) *Change {
	c := &Change{Add: now.Diff(old), Del: old.Diff(now), Cur: now}
	if c.Add.Empty() && c.Del.Empty() {
		return nil
	}
	return c
}

// DiffStates is the change that takes old to now per predicate of now,
// the unchanged ones left out.
func DiffStates(old, now engine.State) map[string]*Change {
	ch := make(map[string]*Change)
	for pred, rel := range now {
		if c := diff(old[pred], rel); c != nil {
			ch[pred] = c
		}
	}
	return ch
}

// Layer is one semipositive layer with its engine instance.
type Layer struct {
	in        *engine.Instance
	preds     map[string]bool // own IDB predicates
	bodyPreds map[string]bool // predicates read by rule bodies
	// Recursive: some rule body reads an own predicate positively.  If
	// none does, a cascade's second pass, driven by own-predicate tuples
	// under positive literals alone, has no task: each cascade stops
	// after its first pass.  NewLayer sets it.
	Recursive bool
}

// NewLayer is the layer whose rules are in's program.
func NewLayer(in *engine.Instance) *Layer {
	sub := in.Program()
	l := &Layer{in: in, preds: sub.IDB(), bodyPreds: make(map[string]bool)}
	for _, r := range sub.Rules {
		for _, lit := range r.Body {
			if lit.Kind == ast.LitPos || lit.Kind == ast.LitNeg {
				l.bodyPreds[lit.Atom.Pred] = true
				l.Recursive = l.Recursive || lit.Kind == ast.LitPos && l.preds[lit.Atom.Pred]
			}
		}
	}
	return l
}

// touched reports whether any changed predicate is read by the layer.
func (l *Layer) touched(ch map[string]*Change) bool {
	for pred := range ch {
		if l.bodyPreds[pred] {
			return true
		}
	}
	return false
}

// drivers compiles the changes the layer reads into the deltas of its
// two passes: dis drives the derivations the update disables — a removed
// tuple under a positive literal, an added one under a negated literal —
// with the literals after the driver reading the old world; ena drives
// the ones it enables, read in the new world the relations already
// hold; anyDis and anyEna report whether either has a driver.  A
// derivation with several drivers may be enumerated once per driver,
// which the set-valued passes of DRed tolerate.  A NegOnly change
// leaves the positive side of its predicate alone.
func (l *Layer) drivers(ch map[string]*Change) (dis, ena map[string]engine.Delta, anyDis, anyEna bool) {
	dis = make(map[string]engine.Delta, len(ch))
	ena = make(map[string]engine.Delta, len(ch))
	for pred, c := range ch {
		if !l.bodyPreds[pred] {
			continue
		}
		d := engine.Delta{AfterNeg: c.old()}
		var e engine.Delta
		if !c.NegOnly {
			d.After = c.old()
		}
		if !c.Del.Empty() {
			e.NegDriver = c.Del
			if !c.NegOnly {
				d.PosDriver = c.Del
			}
		}
		if !c.Add.Empty() {
			d.NegDriver = c.Add
			if !c.NegOnly {
				e.PosDriver = c.Add
			}
		}
		dis[pred], ena[pred] = d, e
		anyDis = anyDis || d.PosDriver != nil || d.NegDriver != nil
		anyEna = anyEna || e.PosDriver != nil || e.NegDriver != nil
	}
	return dis, ena, anyDis, anyEna
}

// Apply maintains the layer's predicates in own under the changes ch of
// what its bodies read, with negated IDB literals reading neg, and
// returns their net changes: overdelete in the old world, commit,
// rederive from the reduced new world, then propagate insertions
// semi-naively — or re-evaluate the layer once the overdelete outgrows
// its bound.  It counts the layer and its engine passes in st.
func (l *Layer) Apply(own, neg engine.State, ch map[string]*Change, st *Stats) map[string]*Change {
	if !l.touched(ch) {
		return nil
	}
	eval := func(sp engine.Spec) engine.State {
		st.Rounds++
		return l.in.Eval(sp)
	}
	// Disabled drivers with old-world reads; enabled drivers.
	base, seed, anyDel, anyIns := l.drivers(ch)
	// withDriver is the side reads of deltas with the own predicates driven
	// by front.  An own predicate may have an entry already — a Γ stage
	// reads it negated against the changed stage below — whose negated
	// side must survive next to the driver.
	withDriver := func(deltas map[string]engine.Delta, front engine.State) map[string]engine.Delta {
		out := make(map[string]engine.Delta, len(deltas)+len(l.preds))
		for pred, d := range deltas {
			d.PosDriver, d.NegDriver = nil, nil
			out[pred] = d
		}
		for pred, r := range front {
			d := out[pred]
			d.PosDriver = r
			out[pred] = d
		}
		return out
	}

	// 1. Overdelete: everything a dying derivation supported, cascaded
	// through the layer in the old world — its own relations, untouched
	// until the overdelete is committed below, and the changed inputs
	// through the per-literal overrides above.  Cascade rounds append to
	// dover, and each drives the next with the range it appended.
	dover := l.in.NewState()
	if anyDel {
		size, over := 0, 0
		for pred := range l.preds {
			size += own[pred].Len()
		}
		frontier := eval(engine.Spec{Pos: own, Neg: neg, Deltas: base, Into: dover})
		for !frontier.Empty() {
			if over += frontier.Total(); over*reevalShare > size {
				st.Reevaluated++
				return l.reevaluate(own, neg, st)
			}
			if !l.Recursive {
				break
			}
			frontier = eval(engine.Spec{Pos: own, Neg: neg, Deltas: withDriver(base, frontier), Into: dover})
		}
		for pred := range l.preds {
			own[pred].RemoveAll(dover[pred])
		}
	}

	// Everything phases 2 and 3 add is appended past these lengths.
	mark := make(map[string]int, len(l.preds))
	for pred := range l.preds {
		mark[pred] = own[pred].Len()
	}

	// 2. Rederive, once: the overdeleted tuples that the reduced state and
	// the updated inputs still derive in one step come back and join the
	// insert seeds.  One pass is enough.  The reduced state lies below
	// the new fixpoint, and a one-step consequence of it either uses a
	// fact the update enables (a seed already) or was derivable in the
	// old world, hence is an overdeleted tuple this pass finds; whatever
	// else must come back follows from a tuple added here or in phase 3.
	if !dover.Empty() {
		for pred, red := range eval(engine.Spec{Pos: own, Neg: neg, Within: dover, Into: own}) {
			d := seed[pred]
			d.PosDriver = red
			seed[pred] = d
			anyIns = true
		}
	}

	// 3. Insert: derivations the update enables or the rederived tuples
	// support, propagated semi-naively through the layer in the new
	// world: each pass appends to own what it lacks and drives the next
	// with the range it appended.
	if anyIns {
		frontier := eval(engine.Spec{Pos: own, Neg: neg, Deltas: seed, Into: own})
		for !frontier.Empty() && l.Recursive {
			frontier = eval(engine.Spec{Pos: own, Neg: neg, Deltas: withDriver(nil, frontier), Into: own})
		}
	}

	// Net changes, from the sets in hand: a tuple left the relation iff it
	// was overdeleted and did not come back (a walk over the overdeleted
	// set, not over the relation), and entered it iff it was appended
	// past the mark without having been overdeleted.
	net := make(map[string]*Change, len(l.preds))
	for pred := range l.preds {
		rel, over := own[pred], dover[pred]
		c := &Change{Add: relation.New(rel.Arity()), Del: over.Diff(rel), Cur: rel}
		for off := mark[pred]; off < rel.Len(); off++ {
			if t := rel.At(int32(off)); !over.Has(t) {
				c.Add.Add(t)
			}
		}
		if !c.Add.Empty() || !c.Del.Empty() {
			net[pred] = c
		}
	}
	st.Maintained++
	return net
}

// reevaluate computes the layer from scratch, Γ against neg, and writes
// the difference into own's relations in place — the strata above read
// them from the database — returning it as the layer's net change.
func (l *Layer) reevaluate(own, neg engine.State, st *Stats) map[string]*Change {
	fresh := lfpLoop(l.in, neg)
	st.add(fresh.Stats)
	net := make(map[string]*Change, len(l.preds))
	for pred := range l.preds {
		rel := own[pred]
		if c := diff(rel, fresh.State[pred]); c != nil {
			rel.RemoveAll(c.Del)
			rel.AppendDisjoint(c.Add)
			c.Cur = rel
			net[pred] = c
		}
	}
	return net
}
