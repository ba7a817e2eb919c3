// durable.go — checkpoint capture and restore.
//
// A Checkpoint is everything a Maintainer needs to come back without
// re-running the fixpoint: the program, the universe, the EDB and the
// materialized IDB state, plus the possibly-true relations of a
// well-founded model computed by alternation.  Everything else the
// methods keep (stratum engine instances, the stages of the
// alternating fixpoint) is rebuilt from that state on restore:
//
//   - strata and stages: neither keeps anything beside the materialized
//     relations, so the restored IDB is installed as it is.
//   - alternation: the chain of Γ stages is not persisted; restore
//     rebuilds it over the restored EDB as New does, with
//     semantics.Layer.Alternate keeping every stage, and refuses a
//     checkpoint whose True or Possible differ from its last two.
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
	// model where it is computed by alternation; it is nil where the
	// model is total because the program is stratifiable, and restore
	// then reads it as IDB.
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
	if m.method == core.Alternation {
		wf := m.WF()
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
	db := relation.NewDatabaseOn(cp.Universe.Clone())
	for _, name := range cp.EDBNames {
		r, ok := cp.EDB[name]
		if !ok {
			return nil, fmt.Errorf("incr: checkpoint lists EDB relation %s but does not carry it", name)
		}
		db.Set(name, r.Mutable())
	}
	m, err := newMaintainer(cp.Prog, cp.Sem, db)
	if err != nil {
		return nil, err
	}
	m.gen = cp.Gen

	if m.method == core.Alternation {
		m.recompute()
	} else {
		// Install the restored IDB where recompute would have put
		// computed results: strata read lower strata from the database.
		m.state = make(engine.State, len(m.idb))
		for pred := range m.idb {
			rel, ar := cp.IDB[pred], m.arities[pred]
			switch {
			case rel == nil:
				rel = relation.New(ar)
			case rel.Arity() != ar:
				return nil, fmt.Errorf("incr: checkpoint relation %s has arity %d, program wants %d", pred, rel.Arity(), ar)
			default:
				rel = rel.Mutable()
			}
			if m.strata != nil {
				m.db.Set(pred, rel)
			}
			m.state[pred] = rel
		}
		// The levels are not persisted: a recursive stratum's come from
		// one fixpoint of it, bottom-up, which must be what was restored.
		for i, l := range m.strata {
			if !l.Relevel(m.state, m.state) {
				return nil, fmt.Errorf("incr: checkpoint's stratum %d is not the fixpoint over its EDB", i+1)
			}
		}
	}
	if wf := m.WF(); wf != nil {
		// The model is rebuilt (the chain) or has one part (strata): what
		// the checkpoint says of it can only be checked.  A checkpoint
		// without Possible says the model is total.
		possible := cp.Possible
		if possible == nil {
			possible = cp.IDB
		}
		for _, part := range []struct {
			name string
			got  engine.State
			want map[string]*relation.Relation
		}{{"true", wf.True, cp.IDB}, {"possible", wf.Possible, possible}} {
			for pred, r := range part.got {
				if w := part.want[pred]; w == nil && !r.Empty() || w != nil && !w.Equal(r) {
					return nil, fmt.Errorf("incr: checkpoint's %s part of %s is not the well-founded model's over its EDB", part.name, pred)
				}
			}
		}
	}
	return m, nil
}
