// replay.go — stage-log replay for general inflationary programs.
//
// The inflationary semantics is its stage sequence: S₀ = ∅,
// S_{j+1} = S_j ∪ Θ(S_j), iterated to the inductive fixpoint.  For a
// non-monotone program there is no DRed shortcut — the result
// is defined by the order tuples appear in — but the sequence itself
// can be checkpointed: evaluation logs an O(1) snapshot of every stage
// (semantics.InflationaryLog).  An EDB update leaves the prefix of the
// sequence provably unchanged up to the first stage where a changed
// tuple participates in a derivation; replay restarts there instead of
// at ∅.
//
// Stage j+1 is unchanged (S'_{j+1} = S_{j+1}, given S'_j = S_j) when
//
//   - every derivation the change enables at S_j has a head already in
//     S_{j+1} (it adds nothing new), and
//   - every derivation the change disables at S_j has a head already in
//     S_j (inflationary states never shrink, so the head survives
//     regardless of the lost derivation).
//
// Both probe sets are computed by an engine Deltas pass with the changed
// tuples as drivers; side literals read the either-world union
// (positive) and are checked against the both-worlds intersection
// (negated), overapproximating derivations of either world — safe for
// a prefix-validity proof.  Both sets are overlays on the updated
// relation (see change), not copies.
package incr

import (
	"repro/internal/engine"
	"repro/internal/semantics"
)

// evalReplay runs the initial inflationary evaluation, persisting the
// per-stage snapshot log.
func (m *Maintainer) evalReplay() {
	m.log = nil
	res := semantics.InflationaryLog(m.in, semantics.SemiNaive, func(s engine.State) {
		m.log = append(m.log, s)
	})
	m.state = res.State
}

// updateReplay finds the first stage the EDB changes can affect and
// replays the stage sequence from there.
func (m *Maintainer) updateReplay(ch map[string]*change, stats *UpdateStats) {
	enabled := make(map[string]engine.Delta, len(ch))
	disabled := make(map[string]engine.Delta, len(ch))
	for pred, c := range ch {
		d := engine.Delta{Before: c.either(), BeforeNeg: c.both(), After: c.either(), AfterNeg: c.both()}
		e, f := d, d
		if !c.add.Empty() {
			e.PosDriver = c.add
			f.NegDriver = c.add
		}
		if !c.del.Empty() {
			e.NegDriver = c.del
			f.PosDriver = c.del
		}
		enabled[pred] = e
		disabled[pred] = f
	}

	// Walk the logged stages; base holds S_j while stage is S_{j+1}.
	// The final iteration (j == len(log)) re-checks the fixpoint
	// condition itself: the new operator must not derive past S_m.
	base := m.in.NewState()
	first := -1
	for j := 0; j <= len(m.log); j++ {
		stage := base
		if j < len(m.log) {
			stage = m.log[j]
		}
		if en := m.in.Eval(engine.Spec{Pos: base, Deltas: enabled}); !en.SubsetOf(stage) {
			first = j
			break
		}
		if j < len(m.log) {
			if dis := m.in.Eval(engine.Spec{Pos: base, Deltas: disabled}); !dis.SubsetOf(base) {
				first = j
				break
			}
			base = stage
		}
	}
	if first < 0 {
		stats.SkippedStages = len(m.log)
		return
	}
	stats.SkippedStages = first
	if first < len(m.log) {
		m.log = m.log[:first]
	}

	// Replay from S_first: one full Θ application, then semi-naive
	// rounds exactly as in the from-scratch loop — on the frontier
	// contract, so each round returns the genuinely-new tuples directly.
	preTotal := m.state.Total()
	cur := base.Mutable()
	nd := m.in.Eval(engine.Spec{Pos: cur, Against: cur})
	stats.ReplayedStages = 1
	for !nd.Empty() {
		prev := cur.Snapshot()
		cur.UnionDisjoint(nd)
		m.log = append(m.log, cur.Snapshot())
		sp := engine.SemiNaive(prev, nd, cur, nil)
		sp.Against = cur
		nd = m.in.Eval(sp)
		stats.ReplayedStages++
	}
	m.state = cur
	if d := cur.Total() - preTotal; d >= 0 {
		stats.InsertedIDB = d
	} else {
		stats.DeletedIDB = -d
	}
}
