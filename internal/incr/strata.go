// strata.go — DRed maintenance for stratified evaluation.
//
// The program is split into strata exactly as in semantics.Stratified:
// each stratum is a semipositive program over the results of lower
// strata, evaluated bottom-up, with lower-stratum predicates read as
// EDB from the maintainer's database.  An update enters as EDB changes
// and cascades upward: each stratum turns the changes below it into its
// own net insertions and deletions, which the next stratum consumes —
// insertions acting as deletions through negated literals and vice
// versa.
//
// A pass works on two states: the one its own predicates live in, which
// positive own-predicate literals read and the pass updates, and the one
// negated IDB literals read.  A stratum passes the maintained state for
// both (its negated literals are over lower strata, read as EDB); a Γ
// stage of the alternating fixpoint (chain.go) passes its own stage and
// the stage below.  By the time a pass runs, every relation it reads
// already holds the new world; a change carries what entered and what
// left, and the old world is an engine.Overlay on the new relation, so
// no pass allocates in proportion to a relation it does not change.
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
// relations.
package incr

import (
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// stratum is one semipositive layer — a stratum of the program, or the
// whole program as a Γ stage — with its engine instance over the
// maintainer's database.
type stratum struct {
	in        *engine.Instance
	preds     map[string]bool // own IDB predicates
	bodyPreds map[string]bool // predicates read by rule bodies
}

func newStratum(in *engine.Instance, sub *ast.Program) *stratum {
	s := &stratum{in: in, preds: sub.IDB(), bodyPreds: make(map[string]bool)}
	for _, r := range sub.Rules {
		for _, l := range r.Body {
			if l.Kind == ast.LitPos || l.Kind == ast.LitNeg {
				s.bodyPreds[l.Atom.Pred] = true
			}
		}
	}
	return s
}

// initStrata stratifies the program and builds one engine instance per
// stratum over the maintainer's database (which doubles as the working
// database: computed strata are installed into it, so higher strata —
// whose instances treat lower predicates as EDB — read them live).
func (m *Maintainer) initStrata() error {
	strat, err := m.prog.Stratify()
	if err != nil {
		return err
	}
	m.strata = nil
	for k := 0; k < strat.NumStrata(); k++ {
		sub := &ast.Program{Rules: m.prog.RulesForStratum(strat, k)}
		in, err := engine.New(sub, m.db)
		if err != nil {
			return err
		}
		m.strata = append(m.strata, newStratum(in, sub))
	}
	return nil
}

// evalStrata computes every stratum from scratch and installs the
// results into the database and state.
func (m *Maintainer) evalStrata() {
	m.state = make(engine.State)
	for _, s := range m.strata {
		// Each stratum is semipositive over its own predicates, so the
		// inflationary loop computes its least fixpoint.
		st := semantics.Inflationary(s.in).State
		for pred, rel := range st {
			m.db.Set(pred, rel)
			m.state[pred] = rel
		}
	}
}

// touched reports whether any changed predicate is read by the stratum.
func (s *stratum) touched(ch map[string]*change) bool {
	for pred := range ch {
		if s.bodyPreds[pred] {
			return true
		}
	}
	return false
}

// updateStrata cascades the EDB changes upward through the strata,
// extending ch with each stratum's net IDB changes.
func (m *Maintainer) updateStrata(ch map[string]*change, stats *UpdateStats) {
	for _, s := range m.strata {
		for pred, c := range s.apply(m.state, m.state, ch) {
			ch[pred] = c
			stats.InsertedIDB += c.add.Len()
			stats.DeletedIDB += c.del.Len()
		}
	}
}

// drivers compiles the changes the layer reads into the deltas of its
// two passes: dis drives the derivations the update disables — a removed
// tuple under a positive literal, an added one under a negated literal —
// with the literals after the driver reading the old world; ena drives
// the ones it enables, read in the new world the relations already
// hold; anyDis and anyEna report whether either has a driver.  A
// derivation with several drivers may be enumerated once per driver,
// which the set-valued passes of DRed tolerate.  A negOnly change
// leaves the positive side of its predicate alone.
func (s *stratum) drivers(ch map[string]*change) (dis, ena map[string]engine.Delta, anyDis, anyEna bool) {
	dis = make(map[string]engine.Delta, len(ch))
	ena = make(map[string]engine.Delta, len(ch))
	for pred, c := range ch {
		if !s.bodyPreds[pred] {
			continue
		}
		d := engine.Delta{AfterNeg: c.old()}
		var e engine.Delta
		if !c.negOnly {
			d.After = c.old()
		}
		if !c.del.Empty() {
			e.NegDriver = c.del
			if !c.negOnly {
				d.PosDriver = c.del
			}
		}
		if !c.add.Empty() {
			d.NegDriver = c.add
			if !c.negOnly {
				e.PosDriver = c.add
			}
		}
		dis[pred], ena[pred] = d, e
		anyDis = anyDis || d.PosDriver != nil || d.NegDriver != nil
		anyEna = anyEna || e.PosDriver != nil || e.NegDriver != nil
	}
	return dis, ena, anyDis, anyEna
}

// apply maintains the layer's predicates in own under the changes ch of
// what its bodies read and returns their net changes: overdelete in the
// old world, commit, rederive from the reduced new world, then
// propagate insertions semi-naively.
func (s *stratum) apply(own, neg engine.State, ch map[string]*change) map[string]*change {
	if !s.touched(ch) {
		return nil
	}
	in := s.in
	// Disabled drivers with old-world reads; enabled drivers.
	base, seed, anyDel, anyIns := s.drivers(ch)
	// withDriver is the side reads of deltas with the own predicates driven
	// by front.  An own predicate may have an entry already — a Γ stage
	// reads it negated against the changed stage below — whose negated
	// side must survive next to the driver.
	withDriver := func(deltas map[string]engine.Delta, front engine.State) map[string]engine.Delta {
		out := make(map[string]engine.Delta, len(deltas)+len(s.preds))
		for pred, d := range deltas {
			d.PosDriver, d.NegDriver = nil, nil
			out[pred] = d
		}
		for pred := range s.preds {
			if !front[pred].Empty() {
				d := out[pred]
				d.PosDriver = front[pred]
				out[pred] = d
			}
		}
		return out
	}

	// 1. Overdelete: everything a dying derivation supported, cascaded
	// through the stratum in the old world — the stratum's own relations,
	// untouched until the overdelete is committed below, and the changed
	// inputs through the per-literal overrides above.  Cascade rounds run
	// on the frontier contract: emissions already overdeleted are dropped
	// at emit time instead of surviving into a derived state for a Diff.
	dover := in.NewState()
	if anyDel {
		frontier := in.Eval(engine.Spec{Pos: own, Neg: neg, Deltas: base})
		for !frontier.Empty() {
			dover.UnionWith(frontier)
			frontier = in.Eval(engine.Spec{Pos: own, Neg: neg, Deltas: withDriver(base, frontier), Against: dover})
		}
		for pred := range s.preds {
			own[pred].RemoveAll(dover[pred])
		}
	}

	// Everything phases 2 and 3 add is appended past these lengths.
	mark := make(map[string]int, len(s.preds))
	for pred := range s.preds {
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
		red := in.Eval(engine.Spec{Pos: own, Neg: neg, Within: dover})
		for pred := range s.preds {
			if !red[pred].Empty() {
				own[pred].UnionWith(red[pred])
				d := seed[pred]
				d.PosDriver = red[pred]
				seed[pred] = d
				anyIns = true
			}
		}
	}

	// 3. Insert: derivations the update enables or the rederived tuples
	// support, propagated semi-naively through the stratum in the new
	// world, filtered against the already materialized own-predicate
	// state at emit time (Against is read at head predicates only, which
	// are own ones).
	if anyIns {
		frontier := in.Eval(engine.Spec{Pos: own, Neg: neg, Deltas: seed, Against: own})
		for !frontier.Empty() {
			for pred := range s.preds {
				own[pred].UnionWith(frontier[pred])
			}
			frontier = in.Eval(engine.Spec{Pos: own, Neg: neg, Deltas: withDriver(nil, frontier), Against: own})
		}
	}

	// Net changes, from the sets in hand: a tuple left the relation iff it
	// was overdeleted and did not come back (a walk over the overdeleted
	// set, not over the relation), and entered it iff it was appended
	// past the mark without having been overdeleted.
	net := make(map[string]*change, len(s.preds))
	for pred := range s.preds {
		rel, over := own[pred], dover[pred]
		c := &change{add: relation.New(rel.Arity()), del: over.Diff(rel), cur: rel}
		for off := mark[pred]; off < rel.Len(); off++ {
			if t := rel.At(int32(off)); !over.Has(t) {
				c.add.Add(t)
			}
		}
		if !c.add.Empty() || !c.del.Empty() {
			net[pred] = c
		}
	}
	return net
}
