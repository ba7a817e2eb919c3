package incr_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// stateOf renders everything a reader can observe through a snapshot:
// every relation plus the universe, so two maintainers compare
// bit-exactly.
func stateOf(m *incr.Maintainer) string {
	snap := m.Snapshot()
	out := ""
	consts := snap.Universe.Names()
	sort.Strings(consts)
	for _, name := range consts {
		out += name + " "
	}
	out += "\n"
	names := make([]string, 0, len(snap.Rels))
	for name := range snap.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out += name + " = " + snap.Rels[name].Format(snap.Universe) + "\n"
	}
	if wf := m.WF(); wf != nil {
		out += "possible = " + wf.Possible.Format(m.Universe()) + "\n"
	}
	return out
}

// TestCheckpointRestoreBitExact checkpoints a maintainer mid-stream,
// restores it, and verifies the restored maintainer is bit-exact with
// the original — immediately, and after every one of a further series
// of identical random updates — for every semantics/strategy.
func TestCheckpointRestoreBitExact(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		preds []string
		sems  []core.Semantics
	}{
		{"tc", tcSrc, []string{"E"}, []core.Semantics{core.LFP, core.Stratified, core.Inflationary, core.WellFounded}},
		{"distance", distSrc, []string{"E"}, []core.Semantics{core.Stratified, core.WellFounded}},
		{"winmove", winSrc, []string{"E"}, []core.Semantics{core.Inflationary, core.WellFounded}},
		{"unsafe-semipositive", unsafeSrc, []string{"E", "F"}, []core.Semantics{core.LFP, core.Inflationary}},
	}
	for _, tc := range cases {
		for _, sem := range tc.sems {
			t.Run(tc.name+"/"+sem.String(), func(t *testing.T) {
				prog := parser.MustProgram(tc.src)
				n := 6
				db := graphs.Random(rand.New(rand.NewSource(11)), n, 0.3).Database()
				for _, p := range tc.preds[1:] {
					db.MustEnsure(p, 2)
				}
				m, err := incr.New(prog, db, sem)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(43))
				fresh := 0
				for step := 0; step < 6; step++ {
					ins, del := randomBatch(rng, tc.preds, n, &fresh)
					if _, err := m.Update(ins, del); err != nil {
						t.Fatal(err)
					}
				}

				cp := m.Checkpoint()
				r, err := incr.RestoreWith(cp, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if r.Snapshot().Gen != m.Snapshot().Gen {
					t.Fatalf("restored gen %d, want %d", r.Snapshot().Gen, m.Snapshot().Gen)
				}
				if got, want := stateOf(r), stateOf(m); got != want {
					t.Fatalf("restored state diverged\nrestored:\n%s\noriginal:\n%s", got, want)
				}

				// The checkpoint is not consumed: restoring it again
				// must still work, even after the first restoration
				// has been updated.
				for step := 0; step < 8; step++ {
					ins, del := randomBatch(rng, tc.preds, n, &fresh)
					sm, err := m.Update(ins, del)
					if err != nil {
						t.Fatal(err)
					}
					sr, err := r.Update(ins, del)
					if err != nil {
						t.Fatal(err)
					}
					if sm.Strategy != sr.Strategy {
						t.Errorf("step %d: strategies diverged: original %s, restored %s", step, sm.Strategy, sr.Strategy)
					}
					if got, want := stateOf(r), stateOf(m); got != want {
						t.Fatalf("step %d (ins=%v del=%v): restored maintainer diverged\nrestored:\n%s\noriginal:\n%s",
							step, ins, del, got, want)
					}
				}
				// The checkpoint is reusable: a second restoration, after
				// the first one has been updated, still works.
				r2, err := incr.RestoreWith(cp, engine.Options{})
				if err != nil {
					t.Fatalf("second restore: %v", err)
				}
				if got := r2.Snapshot().Gen; got != cp.Gen {
					t.Fatalf("second restore gen %d, want %d", got, cp.Gen)
				}
			})
		}
	}
}

// TestRestoreRejectsCorruptCheckpoints covers the defensive path of a
// checkpoint missing a listed EDB relation.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	prog := parser.MustProgram(winSrc)
	m, err := incr.New(prog, graphs.Path(4).Database(), core.Inflationary)
	if err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	delete(cp.EDB, "E")
	if _, err := incr.RestoreWith(cp, engine.Options{}); err == nil {
		t.Error("restore accepted a checkpoint missing a listed EDB relation")
	}
}

// TestRestoreRefusesTamperedModel: a restore computes the model over
// the checkpoint's EDB under every method, so a checkpoint whose true
// part differs from it by one tuple, added or removed, is refused —
// in a recursive stratum, in a stratum above it that is not recursive,
// in the stages of an inflationary program and in the true part of a
// well-founded model that has drawn positions.
func TestRestoreRefusesTamperedModel(t *testing.T) {
	const facts = "E(a,b). E(b,c). E(c,a). E(c,d). E(e,f). E(f,e). V(a). V(b). V(c). V(d). V(e). V(f)."
	for _, tc := range []struct {
		name, src string
		sem       core.Semantics
	}{
		{"lfp", tcSrc, core.LFP},
		{"stratified", negSrc, core.Stratified},
		{"inflationary", winSrc, core.Inflationary},
		{"wellfounded", winSrc, core.WellFounded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustProgram(tc.src)
			m, err := incr.New(prog, parser.MustFacts(facts), tc.sem)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := incr.RestoreWith(m.Checkpoint(), engine.Options{}); err != nil {
				t.Fatalf("restore refused an untampered checkpoint: %v", err)
			}
			for _, pred := range prog.IDBList() {
				cp := m.Checkpoint()
				held := cp.IDB[pred]
				if held.Empty() {
					t.Fatalf("%s is empty: nothing to remove", pred)
				}
				// One tuple removed, and one the model lacks added.
				removed, added := held.Clone(), held.Clone()
				removed.Remove(held.At(0))
				relation.Full(held.Arity(), cp.Universe.Size()).Each(func(tu relation.Tuple) bool {
					return !added.Add(tu)
				})
				if added.Len() != held.Len()+1 {
					t.Fatalf("%s holds every tuple: nothing to add", pred)
				}
				for what, rel := range map[string]*relation.Relation{"removed": removed, "added": added} {
					cp.IDB[pred] = rel
					if _, err := incr.RestoreWith(cp, engine.Options{}); err == nil {
						t.Errorf("restore accepted a checkpoint with one tuple of %s %s", pred, what)
					}
				}
			}
		})
	}
}
