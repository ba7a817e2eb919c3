package incr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

// Chain returns an alternation's stages A₀ … Aₙ and the engine
// instance they are stages of, for tests that check each against Γ of
// the stage below.
func (m *Maintainer) Chain() ([]engine.State, *engine.Instance) { return m.chain, m.in }

// CheckLevels checks the level invariant of every layer that keeps
// levels — each stratum, or each Γ stage over the stage below: for
// every level ℓ present, a Within pass reading only the layer's own
// tuples below ℓ must derive every tuple of level ℓ.  A level that is
// too low fails it even when the model happens to be right, and so
// does a tuple of no known level, whose deletion goes unchecked.
func (m *Maintainer) CheckLevels() error {
	switch m.method {
	case core.Strata:
		for k, in := range m.insts {
			if err := checkLevels(in, m.state, m.state); err != nil {
				return fmt.Errorf("stratum %d: %w", k, err)
			}
		}
	case core.Alternation:
		for i := 1; i < len(m.chain); i++ {
			if err := checkLevels(m.in, m.chain[i], m.chain[i-1]); err != nil {
				return fmt.Errorf("stage %d: %w", i, err)
			}
		}
	}
	return nil
}

// checkLevels checks the level invariant of in's predicates in own,
// negated literals reading neg.
func checkLevels(in *engine.Instance, own, neg engine.State) error {
	if !in.KeepsLevels() {
		return nil
	}
	byLevel := make(map[uint16]map[string]*relation.Relation)
	for _, pred := range in.IDBPreds() {
		rel := own[pred]
		for off := range int32(rel.Len()) {
			lv := rel.Level(off)
			if lv == relation.NoLevel {
				return fmt.Errorf("%s%v has no level", pred, rel.At(off))
			}
			if byLevel[lv] == nil {
				byLevel[lv] = make(map[string]*relation.Relation)
			}
			if byLevel[lv][pred] == nil {
				byLevel[lv][pred] = relation.New(rel.Arity())
			}
			byLevel[lv][pred].Add(rel.At(off))
		}
	}
	for lv, within := range byLevel {
		over := make(map[string]engine.Overlay)
		for _, pred := range in.IDBPreds() {
			over[pred] = engine.Overlay{Base: own[pred], Below: lv}
		}
		got := in.Eval(engine.Spec{Pos: own, Neg: neg, Over: over, Within: within})
		for pred, w := range within {
			if miss := w.Diff(got[pred]); !miss.Empty() {
				return fmt.Errorf("%s%s at level %d has no derivation below it", pred, miss.Format(in.Universe()), lv)
			}
		}
	}
	return nil
}
