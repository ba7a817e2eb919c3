package incr_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

const (
	tcSrc   = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	distSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`
	winSrc = "win(X) :- E(X,Y), !win(Y)."
	// X appears only under negation: the rule enumerates the universe,
	// so universe growth forces the recompute fallback.
	unsafeSrc = "t(X) :- !E(X,X).\nu(X,Y) :- E(X,Y), !F(X,Y)."
	// The lower stratum enumerates the universe, and the constant c
	// first appears in the higher one: t must contain c, so u is empty.
	constSrc = "t(X) :- !E(X,X).\nu(X) :- E(X,Y), !t(c)."
)

// readWhileUpdating publishes m's snapshot and, for k > 1, starts k−1
// goroutines that read it while the caller goes on updating m: a
// published snapshot must keep what it held when published, whatever
// Update does meanwhile.  Publishing seals m's relations, so the next
// update also takes the copy-on-write path a daemon's takes.  wg counts
// the readers; the test waits on it before it ends.
func readWhileUpdating(t *testing.T, m *incr.Maintainer, k int, wg *sync.WaitGroup) {
	if k <= 1 {
		return
	}
	snap := m.Snapshot()
	want := formatSnapshot(snap)
	for g := 1; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := formatSnapshot(snap); got != want {
				t.Errorf("generation %d changed under a reader:\n%s\nwas published as\n%s", snap.Gen, got, want)
			}
		}()
	}
}

// formatSnapshot renders every relation of s, sorted by name.
func formatSnapshot(s *incr.Snapshot) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(s.Rels)) {
		fmt.Fprintf(&b, "%s = %s\n", name, s.Rels[name].Format(s.Universe))
	}
	return b.String()
}

// applyPlain mirrors a maintainer update onto a plain database, in the
// same order normalize uses (deletes first), so constant interning
// stays aligned.  Like normalize, a delete interns and creates nothing:
// a fact naming an unknown predicate or constant is absent.
func applyPlain(t *testing.T, db *relation.Database, ins, del []incr.Fact) {
	t.Helper()
	for _, f := range del {
		r := db.Relation(f.Pred)
		tu := make(relation.Tuple, len(f.Args))
		for i, a := range f.Args {
			id, ok := db.Universe().Lookup(a)
			if !ok {
				r = nil
				break
			}
			tu[i] = id
		}
		if r != nil {
			r.Remove(tu)
		}
	}
	for _, f := range ins {
		r, err := db.Ensure(f.Pred, len(f.Args))
		if err != nil {
			t.Fatal(err)
		}
		tu := make(relation.Tuple, len(f.Args))
		for i, a := range f.Args {
			tu[i] = db.Universe().Intern(a)
		}
		r.Add(tu)
	}
}

// randomBatch draws 1-3 fact inserts/deletes over the given predicates,
// occasionally using a fresh constant name to exercise universe growth.
func randomBatch(rng *rand.Rand, preds []string, n int, fresh *int) (ins, del []incr.Fact) {
	name := func() string {
		if rng.Intn(12) == 0 {
			*fresh++
			return fmt.Sprintf("w%d", *fresh)
		}
		return graphs.VertexName(rng.Intn(n))
	}
	seen := map[string]bool{}
	for k := rng.Intn(3) + 1; k > 0; k-- {
		f := incr.Fact{Pred: preds[rng.Intn(len(preds))], Args: []string{name(), name()}}
		key := f.Pred + "/" + f.Args[0] + "/" + f.Args[1]
		if seen[key] {
			continue // same tuple twice in one batch risks an ins/del conflict
		}
		seen[key] = true
		if rng.Intn(2) == 0 {
			ins = append(ins, f)
		} else {
			del = append(del, f)
		}
	}
	return ins, del
}

// checkUpdate applies one update to the maintainer and to the plain
// mirror database and verifies that the maintained state — under
// WellFounded both the certainly-true and the possibly-true part — is
// bit-exact with a from-scratch evaluation of the mirror, and that the
// update's stats report what that state (under WellFounded, its
// certainly-true part) gained and lost.  With oracle set the
// three-valued model is also compared with internal/wforacle,
// which shares no code with either.
func checkUpdate(t *testing.T, m *incr.Maintainer, sem core.Semantics, prog *ast.Program, mirror *relation.Database, ins, del []incr.Fact, oracle bool) *incr.UpdateStats {
	t.Helper()
	before := m.State().Clone()
	stats, err := m.Update(ins, del)
	if err != nil {
		t.Fatalf("ins=%v del=%v: %v", ins, del, err)
	}
	applyPlain(t, mirror, ins, del)
	gained, lost := m.State().Diff(before).Total(), before.Diff(m.State()).Total()
	if stats.InsertedIDB != gained || stats.DeletedIDB != lost {
		t.Fatalf("(%s, ins=%v del=%v, strategy=%s): stats report +%d -%d, the state changed by +%d -%d",
			sem, ins, del, stats.Strategy, stats.InsertedIDB, stats.DeletedIDB, gained, lost)
	}
	want, err := core.Eval(prog, mirror, sem)
	if err != nil {
		t.Fatalf("recompute: %v", err)
	}
	got := m.State().Format(m.Universe())
	exp := want.State.Format(want.Universe)
	if wf := m.WF(); wf != nil {
		got += "possible:\n" + wf.Possible.Format(m.Universe())
		exp += "possible:\n" + want.WF.Possible.Format(want.Universe)
		if wf.Outer != want.WF.Outer {
			t.Fatalf("(%s, ins=%v del=%v, strategy=%s): maintained model took %d outer iterations, recompute %d",
				sem, ins, del, stats.Strategy, wf.Outer, want.WF.Outer)
		}
		if oracle {
			if d := wforacle.Compare(prog, m.Universe(), m.Snapshot().Rels, wf.True, wf.Possible); d != "" {
				t.Fatalf("(%s, ins=%v del=%v, strategy=%s): maintained model differs from the oracle's: %s", sem, ins, del, stats.Strategy, d)
			}
		}
	}
	if got != exp {
		t.Fatalf("(%s, ins=%v del=%v, strategy=%s): maintained state diverged\nmaintained:\n%s\nrecompute:\n%s",
			sem, ins, del, stats.Strategy, got, exp)
	}
	return stats
}

// checkMaintained interleaves random inserts and deletes and verifies
// every update with checkUpdate.
func checkMaintained(t *testing.T, src string, sem core.Semantics, preds []string, seed int64, steps int) {
	prog := parser.MustProgram(src)
	n := 6
	db0 := graphs.Random(rand.New(rand.NewSource(seed)), n, 0.3).Database()
	if len(preds) > 1 {
		// Seed the auxiliary predicates so Ensure arities agree.
		for _, p := range preds[1:] {
			db0.MustEnsure(p, 2)
		}
	}
	// The maintainer interns the program's constants before any fresh
	// one; the mirror must too, or the two print in different orders.
	for _, c := range prog.Constants() {
		db0.AddConstant(c)
	}
	m, err := incr.New(prog, db0, sem)
	if err != nil {
		t.Fatal(err)
	}
	mirror := db0.Clone()
	rng := rand.New(rand.NewSource(seed * 7))
	fresh := 0
	for step := 0; step < steps; step++ {
		ins, del := randomBatch(rng, preds, n, &fresh)
		checkUpdate(t, m, sem, prog, mirror, ins, del, false)
	}
}

func TestMaintainedMatchesRecompute(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		preds []string
		sems  []core.Semantics
	}{
		{"tc", tcSrc, []string{"E"}, []core.Semantics{core.Inflationary, core.LFP, core.Stratified, core.WellFounded}},
		{"distance", distSrc, []string{"E"}, []core.Semantics{core.Stratified, core.Inflationary, core.WellFounded}},
		{"winmove", winSrc, []string{"E"}, []core.Semantics{core.Inflationary, core.WellFounded}},
		{"unsafe-semipositive", unsafeSrc, []string{"E", "F"}, []core.Semantics{core.LFP, core.Inflationary, core.Stratified}},
		{"constant-higher-stratum", constSrc, []string{"E"}, []core.Semantics{core.Stratified, core.WellFounded}},
	}
	for _, tc := range cases {
		for _, sem := range tc.sems {
			for _, seed := range []int64{1, 2, 3} {
				name := fmt.Sprintf("%s/%v/seed%d", tc.name, sem, seed)
				t.Run(name, func(t *testing.T) {
					steps := 24
					if testing.Short() {
						steps = 8
					}
					checkMaintained(t, tc.src, sem, tc.preds, seed, steps)
				})
			}
		}
	}
}

// TestMaintainedPooledMatchesRecompute runs the maintained-vs-recompute
// check on a closure whose initial evaluation's middle rounds, and the
// insert propagation of an edge joining two large reachability sets,
// drive thousands of delta tuples.  It is named for the worker pool
// those passes were once split over.  Subtest procsN reads every
// published snapshot on N goroutines, the test's own included, N−1 of
// them while the next update runs.
func TestMaintainedPooledMatchesRecompute(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	const n = 120
	db0 := graphs.Random(rand.New(rand.NewSource(9)), n, 0.03).Database()
	if fix, err := core.Eval(prog, db0, core.Stratified); err != nil || fix.Stats.MaxDeltaTuples < 4096 {
		t.Fatalf("fixture too small to drive big passes: %v, %+v", err, fix.Stats)
	}
	for _, nw := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", nw), func(t *testing.T) {
			var readers sync.WaitGroup
			defer readers.Wait()
			m, err := incr.New(prog, db0, core.Stratified)
			if err != nil {
				t.Fatal(err)
			}
			mirror := db0.Clone()
			rng := rand.New(rand.NewSource(63))
			fresh := 0
			steps := 16
			if testing.Short() {
				steps = 6
			}
			for step := 0; step < steps; step++ {
				ins, del := randomBatch(rng, []string{"E"}, n, &fresh)
				if _, err := m.Update(ins, del); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				applyPlain(t, mirror, ins, del)
				want, err := core.Eval(prog, mirror, core.Stratified)
				if err != nil {
					t.Fatalf("step %d recompute: %v", step, err)
				}
				got := m.State().Format(m.Universe())
				if exp := want.State.Format(want.Universe); got != exp {
					t.Fatalf("step %d (ins=%v del=%v): maintained state diverged\nmaintained:\n%s\nrecompute:\n%s",
						step, ins, del, got, exp)
				}
				if err := m.CheckLevels(); err != nil {
					t.Fatalf("step %d (ins=%v del=%v): %v", step, ins, del, err)
				}
				readWhileUpdating(t, m, nw, &readers)
			}
		})
	}
}

func TestUpdateErrors(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	db := graphs.Path(3).Database()
	m, err := incr.New(prog, db, core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update([]incr.Fact{{Pred: "s", Args: []string{"v0", "v1"}}}, nil); err == nil {
		t.Error("updating an IDB predicate should fail")
	}
	if _, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v0"}}}, nil); err == nil {
		t.Error("arity mismatch should fail")
	}
	for _, f := range []incr.Fact{
		{Pred: "E", Args: []string{"v0", "v1"}},
		{Pred: "E", Args: []string{"v1", "v0"}}, // absent
	} {
		if _, err := m.Update([]incr.Fact{f}, []incr.Fact{f}); err == nil {
			t.Errorf("same-tuple insert+delete of %v should fail", f)
		}
	}
	// No-op updates are reported as such.
	stats, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v0", "v1"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != "noop" {
		t.Errorf("re-inserting a present fact: strategy %q, want noop", stats.Strategy)
	}
}

// TestRejectedUpdateLeavesNoTrace: an update that fails validation on
// its second fact must not have interned the first one's constant or
// created its relation.  p(X) :- !q(X) reads the universe, so a constant
// leaked by a rejected (and therefore never logged) update would show up
// in p after the next accepted one, where a recompute over the
// acknowledged facts — what WAL replay does — has no such tuple.
func TestRejectedUpdateLeavesNoTrace(t *testing.T) {
	prog := parser.MustProgram("p(X) :- !q(X).")
	fact := func(pred string, args ...string) incr.Fact { return incr.Fact{Pred: pred, Args: args} }
	rejected := []struct {
		name     string
		ins, del []incr.Fact
	}{
		{"program arity", []incr.Fact{fact("q", "b"), fact("q", "a", "b")}, nil},
		{"arity clash on a predicate the program lacks", []incr.Fact{fact("fresh", "b"), fact("fresh", "a", "b")}, nil},
		{"arity of an existing relation", []incr.Fact{fact("q", "b"), fact("r", "b")}, nil},
		{"IDB predicate", []incr.Fact{fact("q", "b"), fact("p", "b")}, nil},
		{"insert/delete conflict", []incr.Fact{fact("q", "b"), fact("q", "a")}, []incr.Fact{fact("q", "a")}},
		{"insert/delete conflict on an absent fact", []incr.Fact{fact("q", "b"), fact("q", "d")}, []incr.Fact{fact("q", "d")}},
	}
	for _, sem := range []core.Semantics{core.Stratified, core.Inflationary, core.WellFounded} {
		db := parser.MustFacts("q(a). r(a,a).")
		m, err := incr.New(prog, db, sem)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range rejected {
			size, names, state := m.Universe().Size(), len(m.Snapshot().Rels), m.State().Format(m.Universe())
			if _, err := m.Update(tc.ins, tc.del); err == nil {
				t.Fatalf("%v, %s: update accepted", sem, tc.name)
			}
			if got := m.Universe().Size(); got != size {
				t.Errorf("%v, %s: universe grew from %d to %d constants", sem, tc.name, size, got)
			}
			if got := len(m.Snapshot().Rels); got != names {
				t.Errorf("%v, %s: %d relations, had %d", sem, tc.name, got, names)
			}
			if got := m.State().Format(m.Universe()); got != state {
				t.Errorf("%v, %s: state changed from\n%s\nto\n%s", sem, tc.name, state, got)
			}
		}
		accepted := []incr.Fact{fact("q", "c")}
		if _, err := m.Update(accepted, nil); err != nil {
			t.Fatal(err)
		}
		applyPlain(t, db, accepted, nil)
		want, err := core.Eval(prog, db, sem)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := m.State().Format(m.Universe()), want.State.Format(want.Universe); got != exp {
			t.Errorf("%v: after the accepted update the maintained state is\n%s\na recompute over the acknowledged facts gives\n%s", sem, got, exp)
		}
	}
}

// Deleting an absent fact is a no-op even when the fact names a
// constant or a predicate the database lacks: the delete interns and
// creates nothing, so a program that enumerates the universe keeps the
// model a from-scratch evaluation of the same EDB gives.
func TestDeleteAbsentFactInternsNothing(t *testing.T) {
	prog := parser.MustProgram("p(X) :- !q(X).")
	for _, sem := range []core.Semantics{core.Inflationary, core.Stratified, core.WellFounded} {
		db := parser.MustFacts("q(a).")
		m, err := incr.New(prog, db, sem)
		if err != nil {
			t.Fatal(err)
		}
		for _, del := range []incr.Fact{
			{Pred: "q", Args: []string{"zzz"}},
			{Pred: "r", Args: []string{"a"}},
		} {
			size, state := m.Universe().Size(), m.State().Format(m.Universe())
			st, err := m.Update(nil, []incr.Fact{del})
			if err != nil {
				t.Fatal(err)
			}
			if st.Strategy != "noop" || st.DeletedEDB != 0 || st.InsertedIDB != 0 {
				t.Errorf("%v, delete %s%v: strategy %s, %d EDB deleted, %d IDB inserted; want a noop", sem, del.Pred, del.Args, st.Strategy, st.DeletedEDB, st.InsertedIDB)
			}
			if got := m.Universe().Size(); got != size {
				t.Errorf("%v, delete %s%v: universe grew from %d to %d constants", sem, del.Pred, del.Args, size, got)
			}
			if got := m.State().Format(m.Universe()); got != state {
				t.Errorf("%v, delete %s%v: state changed from\n%s\nto\n%s", sem, del.Pred, del.Args, state, got)
			}
		}
		if _, ok := m.Snapshot().Rels["r"]; ok {
			t.Errorf("%v: deleting r(a) created a relation r", sem)
		}
		want, err := core.Eval(prog, db, sem)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := m.State().Format(m.Universe()), want.State.Format(want.Universe); got != exp {
			t.Errorf("%v: maintained state\n%s\na from-scratch evaluation gives\n%s", sem, got, exp)
		}
	}
}

func TestSnapshotStableAcrossUpdates(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	m, err := incr.New(prog, graphs.Path(4).Database(), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	before := snap.Rels["s"].Len()
	if _, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v3", "v0"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if snap.Rels["s"].Len() != before {
		t.Fatalf("published snapshot changed under an update: %d -> %d", before, snap.Rels["s"].Len())
	}
	next := m.Snapshot()
	if next.Gen <= snap.Gen {
		t.Fatalf("generation did not advance: %d -> %d", snap.Gen, next.Gen)
	}
	if next.Rels["s"].Len() <= before {
		t.Fatalf("new snapshot missing maintained growth")
	}
}
