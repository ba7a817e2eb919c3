// durable.go — checkpoint capture and restore.
//
// A Checkpoint is the program, the universe, the EDB and the
// materialized IDB state of a Maintainer, plus the possibly-true
// relations of a well-founded model computed by alternation.  Every
// semantics makes the model a function of the program and the EDB, so
// a restore is a cold start: it builds the maintainer as New does, one
// fixpoint over the checkpoint's EDB, and then checks the checkpoint's
// derived relations against the model it computed rather than trusting
// them.  What the methods keep beside the model — the levels of a
// maintained layer, the chain of Γ stages — comes from that build.
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
	// restore re-creates them in the same order, each arena as it was,
	// so the restored fixpoint runs over the original's EDB.
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

// RestoreWith rebuilds a ready Maintainer from a checkpoint: it builds
// one as New does over the checkpoint's universe and EDB, then refuses
// the checkpoint unless its derived relations are the model computed.
// A sealed EDB relation, as Checkpoint captures them, is copied, so
// such a checkpoint can be restored any number of times; any other,
// as durable.ReadSnapshot decodes them, is taken over, and the
// maintainer's updates write into it.  The Options argument is
// ignored; it remains only for benchmark/.
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
	if err := agree("true", m.state, cp.IDB); err != nil {
		return nil, err
	}
	if wf := m.WF(); wf != nil {
		// A checkpoint without Possible says the model is total.
		possible := cp.Possible
		if possible == nil {
			possible = cp.IDB
		}
		if err := agree("possible", wf.Possible, possible); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// agree returns an error unless want, the relations a checkpoint gives
// for the named part of its model, are those computed, got: a
// predicate missing from either side counts as empty.
func agree(part string, got engine.State, want map[string]*relation.Relation) error {
	for pred, w := range want {
		if got[pred] == nil && !w.Empty() {
			return fmt.Errorf("incr: checkpoint's %s part holds %s, which the program does not derive", part, pred)
		}
	}
	for pred, r := range got {
		if w := want[pred]; w == nil && !r.Empty() || w != nil && !w.Equal(r) {
			return fmt.Errorf("incr: checkpoint's %s part of %s is not the model over its EDB", part, pred)
		}
	}
	return nil
}
