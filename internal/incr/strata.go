// strata.go — counting and DRed maintenance for stratified evaluation.
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
// Nonrecursive strata (no positive own-predicate literal) keep exact
// derivation support counts: membership is count > 0, so an update only
// needs the exact counts of the derivations it enables and disables —
// engine.ApplyDeltasCount with the strict first-driver discipline.
// Recursive strata use DRed.  Overdelete everything a disabled
// derivation might have supported, evaluated in the old world: the
// stratum's own relations before anything is removed from them, and
// pre-update snapshots of its inputs.  That leaves a state certainly
// below the new fixpoint, and within a stratum Θ's iteration reaches the
// least fixpoint from any such state, so the rest is iteration upwards:
// one head-filtered pass (engine.ApplyWithin) returns the overdeleted
// tuples the reduced state still derives in one step, and they join the
// update's insertions as seeds of the ordinary semi-naive propagation,
// which finds everything further.  The stratum's net change is then
// read off the sets in hand — overdeleted and not back, appended and
// not overdeleted — instead of diffing relations.
package incr

import (
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// stratum is one stratified layer with its own engine instance over the
// maintainer's database.
type stratum struct {
	in        *engine.Instance
	preds     map[string]bool // own IDB predicates
	bodyPreds map[string]bool // predicates read by rule bodies
	readAbove map[string]bool // own predicates a higher stratum reads
	recursive bool
	counts    map[string]*relation.Multiset // support counts; nil for recursive strata
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
		in, err := engine.NewWith(sub, m.db, m.opts)
		if err != nil {
			return err
		}
		s := &stratum{in: in, preds: sub.IDB(), bodyPreds: make(map[string]bool), readAbove: make(map[string]bool)}
		for _, r := range sub.Rules {
			for _, l := range r.Body {
				if l.Kind == ast.LitPos || l.Kind == ast.LitNeg {
					s.bodyPreds[l.Atom.Pred] = true
					if l.Kind == ast.LitPos && s.preds[l.Atom.Pred] {
						s.recursive = true
					}
				}
			}
		}
		for _, lower := range m.strata {
			for pred := range lower.preds {
				if s.bodyPreds[pred] {
					lower.readAbove[pred] = true
				}
			}
		}
		m.strata = append(m.strata, s)
	}
	return nil
}

// preViews snapshots the stratum's predicates that a higher stratum
// reads, before the update reaches them: those strata evaluate their
// old world against it.  The other predicates get none, so that their
// relations are updated in place rather than copied on the first Remove.
func (s *stratum) preViews(st engine.State) engine.State {
	pre := make(engine.State, len(s.readAbove))
	for pred := range s.readAbove {
		pre[pred] = st[pred].Snapshot()
	}
	return pre
}

// evalStrata computes every stratum from scratch, installs the results
// into the database and state, and seeds support counts for the
// nonrecursive strata.
func (m *Maintainer) evalStrata() {
	m.state = make(engine.State)
	for _, s := range m.strata {
		// Each stratum is semipositive over its own predicates, so the
		// inflationary loop computes its least fixpoint.
		st := semantics.InflationaryMode(s.in, semantics.SemiNaive).State
		for pred, rel := range st {
			m.db.Set(pred, rel)
			m.state[pred] = rel
		}
		if !s.recursive {
			s.seedCounts(st)
		}
	}
}

// seedCounts initializes the stratum's support counts: the number of
// rule-body derivations of each tuple at the fixpoint.
func (s *stratum) seedCounts(st engine.State) {
	s.counts = s.in.ApplyCount(st, st)
	for pred := range s.preds {
		if s.counts[pred] == nil {
			s.counts[pred] = relation.NewMultiset(s.in.Arity(pred))
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
		if !s.touched(ch) {
			continue
		}
		var pre, adds, dels engine.State
		if s.counts != nil {
			pre, adds, dels = s.applyCounting(m, ch)
		} else {
			pre, adds, dels = s.applyDRed(m, ch)
		}
		for pred := range s.preds {
			if adds[pred].Empty() && dels[pred].Empty() {
				continue
			}
			ch[pred] = &change{add: adds[pred], del: dels[pred], pre: pre[pred]}
			stats.InsertedIDB += adds[pred].Len()
			stats.DeletedIDB += dels[pred].Len()
		}
	}
}

// applyCounting maintains a nonrecursive stratum exactly through
// support counts.  The disabled pass counts, in the old world (side
// reads against pre-update snapshots), the derivations using at least
// one removed positive tuple or one added negated tuple; the enabled
// pass mirrors it in the new world.  Both use the strict first-driver
// discipline: before the driver, positive literals read the
// both-worlds-stable tuples and negated literals are checked against
// the either-world union, so every derivation is counted exactly once.
func (s *stratum) applyCounting(m *Maintainer, ch map[string]*change) (pre, adds, dels engine.State) {
	in := s.in
	dis := make(map[string]engine.Delta)
	ena := make(map[string]engine.Delta)
	for pred, c := range ch {
		if !s.bodyPreds[pred] {
			continue
		}
		stable, ever := c.stable(), c.ever()
		d := engine.Delta{Before: stable, BeforeNeg: ever, After: c.pre, AfterNeg: c.pre}
		e := engine.Delta{Before: stable, BeforeNeg: ever}
		if !c.del.Empty() {
			d.PosDriver = c.del
			e.NegDriver = c.del
		}
		if !c.add.Empty() {
			d.NegDriver = c.add
			e.PosDriver = c.add
		}
		dis[pred] = d
		ena[pred] = e
	}
	dec := in.ApplyDeltasCount(m.state, m.state, dis)
	inc := in.ApplyDeltasCount(m.state, m.state, ena)

	pre = s.preViews(m.state)
	adds, dels = in.NewState(), in.NewState()
	for pred := range s.preds {
		ms, rel := s.counts[pred], m.state[pred]
		bump := func(src *relation.Multiset, sign int64) {
			if src == nil {
				return
			}
			src.Each(func(t relation.Tuple, n int64) bool {
				if n != 0 {
					ms.Bump(t, sign*n)
				}
				return true
			})
		}
		bump(dec[pred], -1)
		bump(inc[pred], +1)
		settle := func(src *relation.Multiset) {
			if src == nil {
				return
			}
			src.Each(func(t relation.Tuple, _ int64) bool {
				if ms.Count(t) > 0 {
					if rel.Add(t) {
						adds[pred].Add(t)
					}
				} else if rel.Has(t) {
					dels[pred].Add(t)
				}
				return true
			})
		}
		settle(dec[pred])
		settle(inc[pred])
		rel.RemoveAll(dels[pred])
	}
	return pre, adds, dels
}

// applyDRed maintains a recursive stratum: overdelete in the old world,
// commit, rederive from the reduced new world, then propagate
// insertions semi-naively.  Set-valued throughout, so the relaxed
// (duplicate-tolerant) driver discipline suffices.
func (s *stratum) applyDRed(m *Maintainer, ch map[string]*change) (pre, adds, dels engine.State) {
	in := s.in
	pre = s.preViews(m.state)

	base := make(map[string]engine.Delta)  // disabled drivers + old-world reads
	sides := make(map[string]engine.Delta) // old-world reads only (cascade rounds)
	seed := make(map[string]engine.Delta)  // enabled drivers, new-world reads
	anyDel, anyIns := false, false
	for pred, c := range ch {
		if !s.bodyPreds[pred] {
			continue
		}
		d := engine.Delta{After: c.pre, AfterNeg: c.pre}
		sides[pred] = d
		if !c.del.Empty() {
			d.PosDriver = c.del
			anyDel = true
		}
		if !c.add.Empty() {
			d.NegDriver = c.add
			anyDel = true
		}
		base[pred] = d
		e := engine.Delta{}
		if !c.add.Empty() {
			e.PosDriver = c.add
			anyIns = true
		}
		if !c.del.Empty() {
			e.NegDriver = c.del
			anyIns = true
		}
		if e != (engine.Delta{}) {
			seed[pred] = e
		}
	}

	// 1. Overdelete: everything a dying derivation supported, cascaded
	// through the stratum in the old world — the stratum's own relations,
	// untouched until the overdelete is committed below, and the changed
	// inputs through the per-literal overrides above.  Cascade rounds run
	// on the frontier contract: emissions already overdeleted are dropped
	// at emit time instead of surviving into a derived state for a Diff.
	dover := in.NewState()
	if anyDel {
		frontier := in.ApplyDeltas(m.state, m.state, base)
		for !frontier.Empty() {
			dover.UnionWith(frontier)
			casc := make(map[string]engine.Delta, len(sides)+len(s.preds))
			for pred, d := range sides {
				casc[pred] = d
			}
			drivers := false
			for pred := range s.preds {
				if !frontier[pred].Empty() {
					casc[pred] = engine.Delta{PosDriver: frontier[pred]}
					drivers = true
				}
			}
			if !drivers {
				break
			}
			frontier = partition.ApplyDeltasFrontier(in, m.state, m.state, casc, dover)
		}
		for pred := range s.preds {
			m.state[pred].RemoveAll(dover[pred])
		}
	}

	// Everything phases 2 and 3 add is appended past these lengths.
	mark := make(map[string]int, len(s.preds))
	for pred := range s.preds {
		mark[pred] = m.state[pred].Len()
	}

	// 2. Rederive, once: the overdeleted tuples that the reduced state and
	// the updated inputs still derive in one step come back and join the
	// insert seeds.  One pass is enough.  The reduced state lies below
	// the new fixpoint, and a one-step consequence of it either uses a
	// fact the update enables (a seed already) or was derivable in the
	// old world, hence is an overdeleted tuple this pass finds; whatever
	// else must come back follows from a tuple added here or in phase 3.
	if anyDel {
		red := in.ApplyWithin(m.state, m.state, dover)
		for pred := range s.preds {
			if !red[pred].Empty() {
				m.state[pred].UnionWith(red[pred])
				seed[pred] = engine.Delta{PosDriver: red[pred]}
				anyIns = true
			}
		}
	}

	// 3. Insert: derivations the update enables or the rederived tuples
	// support, propagated semi-naively through the stratum in the new
	// world, filtered against the already materialized own-predicate
	// state at emit time.  Under partitioned evaluation
	// (in.Partitions() > 1) the propagation deltas are routed to their
	// owning partitions and the rounds evaluate K-way, exactly like the
	// from-scratch fixpoint loop.
	if anyIns {
		frontier := partition.ApplyDeltasFrontier(in, m.state, m.state, seed, ownState(m.state, s.preds))
		for !frontier.Empty() {
			for pred := range s.preds {
				rel := m.state[pred]
				frontier[pred].Each(func(t relation.Tuple) bool { rel.Add(t); return true })
			}
			next := make(map[string]engine.Delta, len(s.preds))
			for pred := range s.preds {
				if !frontier[pred].Empty() {
					next[pred] = engine.Delta{PosDriver: frontier[pred]}
				}
			}
			frontier = partition.ApplyDeltasFrontier(in, m.state, m.state, next, ownState(m.state, s.preds))
		}
	}

	// Net changes, from the sets in hand: a tuple left the relation iff it
	// was overdeleted and did not come back (a walk over the overdeleted
	// set, not over the relation), and entered it iff it was appended
	// past the mark without having been overdeleted.
	adds, dels = in.NewState(), make(engine.State, len(s.preds))
	for pred := range s.preds {
		rel, over := m.state[pred], dover[pred]
		dels[pred] = over.Diff(rel)
		for off := mark[pred]; off < rel.Len(); off++ {
			if t := rel.At(int32(off)); !over.Has(t) {
				adds[pred].Add(t)
			}
		}
	}
	return pre, adds, dels
}

// ownState restricts a state to the given predicates.
func ownState(st engine.State, preds map[string]bool) engine.State {
	out := make(engine.State, len(preds))
	for pred := range preds {
		out[pred] = st[pred]
	}
	return out
}
