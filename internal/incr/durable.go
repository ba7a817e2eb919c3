// durable.go — checkpoint capture and restore.
//
// A Checkpoint is everything a Maintainer needs to come back without
// re-running the fixpoint: the program, the universe, the EDB and the
// materialized IDB state, plus the possibly-true relations of the
// well-founded model.  Everything else the strategies keep (stratum
// engine instances, the stages of the alternating fixpoint) is rebuilt
// from that state on restore:
//
//   - strata and recompute: neither keeps anything beside the
//     materialized relations, so the restored IDB is installed as it is.
//   - well-founded: the chain of Γ stages is not persisted; restore runs
//     one alternating fixpoint over the restored EDB, keeps its stages,
//     and refuses a checkpoint whose True or Possible differ from them.
//
// The relations inside a Checkpoint captured from a live Maintainer
// are sealed snapshot views: Checkpoint() is cheap and the caller may
// serialize the result on another goroutine while the maintainer keeps
// updating.
package incr

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

// Checkpoint is a self-contained restorable image of a Maintainer.
type Checkpoint struct {
	Prog     *ast.Program
	Sem      core.Semantics
	Gen      uint64
	Universe *relation.Universe

	// EDBNames lists the EDB relations in database insertion order;
	// restore re-creates them in the same order so a restored
	// maintainer serializes identically to the original.
	EDBNames []string
	EDB      map[string]*relation.Relation
	IDB      map[string]*relation.Relation

	// Possible holds the possibly-true relations of the well-founded
	// model (WellFounded semantics only).
	Possible map[string]*relation.Relation
}

// Checkpoint captures the maintainer's current state as sealed O(1)
// snapshot views.  Like Update and Snapshot it must be called from the
// maintainer's goroutine; the returned checkpoint may then be read —
// serialized, restored — from any goroutine while updates continue.
func (m *Maintainer) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Prog:     m.prog,
		Sem:      m.sem,
		Gen:      m.gen,
		Universe: m.db.Universe().Clone(),
		EDB:      make(map[string]*relation.Relation),
		IDB:      make(map[string]*relation.Relation, len(m.state)),
	}
	for _, name := range m.db.Names() {
		if m.idb[name] {
			continue // strata install IDB results into the database too
		}
		r := m.db.Relation(name)
		cp.EDBNames = append(cp.EDBNames, name)
		cp.EDB[name] = r.Snapshot()
		r.Seal()
	}
	for pred, r := range m.state {
		cp.IDB[pred] = r.Snapshot()
		r.Seal()
	}
	if wf := m.WF(); wf != nil {
		cp.Possible = make(map[string]*relation.Relation, len(wf.Possible))
		for pred, r := range wf.Possible {
			cp.Possible[pred] = r.Snapshot()
			r.Seal()
		}
	}
	return cp
}

// RestoreWith rebuilds a ready Maintainer from a checkpoint without
// re-running the fixpoint.  The checkpoint is not consumed: its
// relations are cloned or re-sealed as needed, so the same checkpoint
// can be restored more than once.  The Options argument is ignored; it
// remains only for benchmark/.
func RestoreWith(cp *Checkpoint, _ engine.Options) (*Maintainer, error) {
	arities, err := cp.Prog.Validate()
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		prog:    cp.Prog,
		sem:     cp.Sem,
		db:      relation.NewDatabaseOn(cp.Universe.Clone()),
		arities: arities,
		idb:     cp.Prog.IDB(),
		gen:     cp.Gen,
		safe:    allVarsPositive(cp.Prog),
	}
	for _, name := range cp.EDBNames {
		r, ok := cp.EDB[name]
		if !ok {
			return nil, fmt.Errorf("incr: checkpoint lists EDB relation %s but does not carry it", name)
		}
		m.db.Set(name, r.Mutable())
	}

	if m.strat, err = pickStrategy(cp.Prog, cp.Sem); err != nil {
		return nil, err
	}
	if err := m.initStrategy(); err != nil {
		return nil, err
	}

	idbRel := func(pred string) (*relation.Relation, error) {
		if r, ok := cp.IDB[pred]; ok {
			if ar, ok := arities[pred]; ok && r.Arity() != ar {
				return nil, fmt.Errorf("incr: checkpoint relation %s has arity %d, program wants %d", pred, r.Arity(), ar)
			}
			return r.Mutable(), nil
		}
		ar, ok := arities[pred]
		if !ok {
			return nil, fmt.Errorf("incr: checkpoint missing IDB relation %s with unknown arity", pred)
		}
		return relation.New(ar), nil
	}

	switch m.strat {
	case stratStrata:
		// Install the restored IDB stratum by stratum, exactly as
		// evalStrata installs computed results.
		m.state = make(engine.State)
		for _, s := range m.strata {
			for pred := range s.preds {
				rel, err := idbRel(pred)
				if err != nil {
					return nil, err
				}
				m.db.Set(pred, rel)
				m.state[pred] = rel
			}
		}
	case stratRecompute:
		m.state = m.in.NewState()
		for pred := range m.state {
			rel, err := idbRel(pred)
			if err != nil {
				return nil, err
			}
			m.state[pred] = rel
		}
	case stratWF:
		m.evalChain()
	}
	if wf := m.WF(); wf != nil {
		// The model is rebuilt (the chain) or has one part (strata): what
		// the checkpoint says of it can only be checked.
		for _, part := range []struct {
			name string
			got  engine.State
			want map[string]*relation.Relation
		}{{"true", wf.True, cp.IDB}, {"possible", wf.Possible, cp.Possible}} {
			for pred, r := range part.got {
				if w := part.want[pred]; w == nil && !r.Empty() || w != nil && !w.Equal(r) {
					return nil, fmt.Errorf("incr: checkpoint's %s part of %s is not the well-founded model's over its EDB", part.name, pred)
				}
			}
		}
	}
	return m, nil
}
