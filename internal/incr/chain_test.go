package incr_test

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

const (
	// mixedSrc has a positive and a negated own-predicate literal in one
	// component: the Γ stages are recursive and go through DRed, and p is
	// read both ways — positively in the stage's own state, negated in the
	// stage below — which is what a change keyed by predicate gets wrong.
	mixedSrc = "p(X) :- E(X,Y), p(Y), !q(X).\np(X) :- F(X,Y), !q(Y).\nq(X) :- E(X,Y), !p(Y)."
	// wfUnsafeSrc is neither stratifiable nor safe: X ranges over the
	// universe under the negations of the first rule.
	wfUnsafeSrc = "p(X) :- !q(X), !E(X,X).\nq(X) :- E(X,Y), !p(Y)."
)

// TestChainMatchesRecompute maintains the well-founded model under
// random updates and checks it, three-valued, against a recompute and
// against the independent oracle after every one.
func TestChainMatchesRecompute(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		preds    []string
		strategy string // of the updates that are neither noop nor recompute
	}{
		{"winmove", winSrc, []string{"E"}, "alternation"}, // G(6, 0.3) has cycles: undefined positions come and go
		{"mixed", mixedSrc, []string{"E", "F"}, "alternation"},
		{"stratifiable", tcSrc + "\nunreach(X,Y) :- E(X,X), E(Y,Y), !s(X,Y).", []string{"E"}, "strata"},
		{"unsafe", wfUnsafeSrc, []string{"E"}, "alternation"},
	}
	// K is the number of goroutines that read each published snapshot:
	// K1 the test's own, K4 three more that read it while the next
	// update runs (readWhileUpdating).
	for _, tc := range cases {
		for _, k := range []int{1, 4} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/K%d/seed%d", tc.name, k, seed), func(t *testing.T) {
					prog := parser.MustProgram(tc.src)
					n := 6
					db := graphs.Random(rand.New(rand.NewSource(seed)), n, 0.3).Database()
					for _, p := range tc.preds[1:] {
						db.MustEnsure(p, 2)
					}
					m, err := incr.New(prog, db, core.WellFounded)
					if err != nil {
						t.Fatal(err)
					}
					var readers sync.WaitGroup
					defer readers.Wait()
					mirror := db.Clone()
					rng := rand.New(rand.NewSource(seed * 13))
					fresh, undefined := 0, 0
					steps := 30
					if testing.Short() {
						steps = 10
					}
					for step := 0; step < steps; step++ {
						ins, del := randomBatch(rng, tc.preds, n, &fresh)
						size := m.Universe().Size()
						stats := checkUpdate(t, m, core.WellFounded, prog, mirror, ins, del, true)
						if err := m.CheckLevels(); err != nil {
							t.Fatalf("step %d (ins=%v del=%v): %v", step, ins, del, err)
						}
						readWhileUpdating(t, m, k, &readers)
						want := tc.strategy
						if tc.name == "unsafe" && m.Universe().Size() > size {
							want = "recompute"
						}
						if stats.Strategy != want && stats.Strategy != "noop" {
							t.Errorf("step %d: strategy %s, want %s", step, stats.Strategy, want)
						}
						if !m.WF().Total() {
							undefined++
						}
					}
					if tc.name == "winmove" && (undefined == 0 || undefined == steps) {
						t.Errorf("%d of %d models have undefined positions: want some with and some without", undefined, steps)
					}
				})
			}
		}
	}
}

// TestChainStageReadsTwoStates pins the two things a Γ stage must not
// do with a change of the stage below, each on the smallest database a
// search found to tell.  (1) Such a change belongs to the negated
// literals of its predicate alone: when the removal of p atoms below
// also drove, or was read by, the positive p(Y) of the first rule — which
// reads the stage's own p — a possible p(v2) whose support was gone
// survived.  (2) When a pass drives an own predicate with the stage's
// own tuples, they join the negated-side drivers that predicate already
// has rather than replace them: when rederived tuples once replaced p's
// removals below among the insert drivers, q(X) :- E(X,Y), !p(Y) never
// fired for them and the model kept q atoms true that had become
// undefined.  (The cascade from confirmed deletions merges the same way.)
func TestChainStageReadsTwoStates(t *testing.T) {
	for _, tc := range []struct {
		facts string
		del   incr.Fact
	}{
		{"E(v0,v0). E(v0,w). E(v1,v0). E(v2,v3). F(v2,v0). F(v3,v2).", incr.Fact{Pred: "E", Args: []string{"v2", "v3"}}},
		{"E(v0,v1). E(v0,v3). E(v1,v2). E(v2,v3). F(v2,v0).", incr.Fact{Pred: "E", Args: []string{"v0", "v3"}}},
	} {
		prog := parser.MustProgram(mixedSrc)
		mirror := parser.MustFacts(tc.facts)
		m, err := incr.New(prog, mirror, core.WellFounded)
		if err != nil {
			t.Fatal(err)
		}
		if stats := checkUpdate(t, m, core.WellFounded, prog, mirror, nil, []incr.Fact{tc.del}, true); stats.Strategy != "alternation" {
			t.Errorf("strategy %s, want alternation", stats.Strategy)
		}
	}
}

// TestChainFollowsAlternationDepth plays win-move on a path, whose
// alternation depth is its length: every edge appended at the far end
// flips every position's value, so the chain has to grow with the path
// and shrink again when the path is cut back.  Every stage the chain
// grows by must be Γ of the stage below, computed from scratch.
func TestChainFollowsAlternationDepth(t *testing.T) {
	prog := parser.MustProgram(winSrc)
	db := graphs.Path(2).Database()
	m, err := incr.New(prog, db, core.WellFounded)
	if err != nil {
		t.Fatal(err)
	}
	mirror := db.Clone()
	edge := func(i int) []incr.Fact {
		return []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(i), graphs.VertexName(i + 1)}}}
	}
	const length = 12
	short := m.WF().Outer
	grown := 0
	for i := 1; i < length; i++ {
		before, _ := m.Chain()
		stats := checkUpdate(t, m, core.WellFounded, prog, mirror, edge(i), nil, true)
		if stats.Strategy != "alternation" && stats.Strategy != "recompute" { // new vertices grow the universe; win-move is safe
			t.Fatalf("edge %d: strategy %s", i, stats.Strategy)
		}
		if chain, in := m.Chain(); stats.Strategy == "alternation" {
			for k := len(before); k < len(chain); k++ {
				grown++
				if !chain[k].Equal(semantics.Gamma(in, chain[k-1])) {
					t.Fatalf("edge %d: grown stage A%d is not Γ(A%d)", i, k, k-1)
				}
			}
		}
		if stats.InsertedIDB+stats.DeletedIDB == 0 {
			t.Errorf("edge %d flips every position, net change reported as none", i)
		}
	}
	long := m.WF().Outer
	if grown == 0 {
		t.Error("no maintained update grew the chain")
	}
	if long < short+length/2-1 {
		t.Errorf("the chain has %d stage pairs on a path of 2 and %d on a path of %d: it did not follow the depth", short, long, length+1)
	}
	for i := length - 1; i >= 1; i-- {
		checkUpdate(t, m, core.WellFounded, prog, mirror, nil, edge(i), true)
	}
	if got := m.WF().Outer; got != short {
		t.Errorf("back on a path of 2 the chain has %d stage pairs, had %d", got, short)
	}
	// A cycle at the far end leaves every position undefined; breaking it
	// decides them all again.
	for i := 1; i < 6; i++ {
		checkUpdate(t, m, core.WellFounded, prog, mirror, edge(i), nil, true)
	}
	back := []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(6), graphs.VertexName(5)}}}
	checkUpdate(t, m, core.WellFounded, prog, mirror, back, nil, true)
	if wf := m.WF(); wf.True.Total() != 0 || wf.Possible.Total() != 7 {
		t.Errorf("with a 2-cycle at the end: %d won and %d possible, want 0 and 7", wf.True.Total(), wf.Possible.Total())
	}
	stats := checkUpdate(t, m, core.WellFounded, prog, mirror, nil, back, true)
	if stats.InsertedIDB != 3 || stats.DeletedIDB != 0 || !m.WF().Total() {
		t.Errorf("cutting the cycle: net change +%d -%d (want +3 -0), total %v", stats.InsertedIDB, stats.DeletedIDB, m.WF().Total())
	}
}

// TestWellFoundedNetChange: UpdateStats reports what the certainly-true
// part gained and lost.  (It reported 0/0 whatever an update changed.)
func TestWellFoundedNetChange(t *testing.T) {
	m, err := incr.New(parser.MustProgram(winSrc), graphs.Path(4).Database(), core.WellFounded) // v0→v1→v2→v3: v2 and v0 win
	if err != nil {
		t.Fatal(err)
	}
	move := []incr.Fact{{Pred: "E", Args: []string{"v3", "v0"}}}
	stats, err := m.Update(move, nil) // a 4-cycle: nobody wins any more
	if err != nil {
		t.Fatal(err)
	}
	if stats.InsertedIDB != 0 || stats.DeletedIDB != 2 || stats.Strategy != "alternation" {
		t.Errorf("closing the cycle: %s, net change +%d -%d, want alternation +0 -2", stats.Strategy, stats.InsertedIDB, stats.DeletedIDB)
	}
	if stats, err = m.Update(nil, move); err != nil {
		t.Fatal(err)
	}
	if stats.InsertedIDB != 2 || stats.DeletedIDB != 0 {
		t.Errorf("opening it again: net change +%d -%d, want +2 -0", stats.InsertedIDB, stats.DeletedIDB)
	}

	// On v0→…→v6 the winners v5, v3, v1 are decided one stage pair after
	// the other.  With v1→v6 and v3→v6 all three win at once: the chain
	// gets shorter, True moves to a lower stage and holds what it held.
	m, err = incr.New(parser.MustProgram(winSrc), graphs.Path(7).Database(), core.WellFounded)
	if err != nil {
		t.Fatal(err)
	}
	long := m.WF().Outer
	stats, err = m.Update([]incr.Fact{{Pred: "E", Args: []string{"v1", "v6"}}, {Pred: "E", Args: []string{"v3", "v6"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.WF().Outer; got >= long || stats.InsertedIDB != 0 || stats.DeletedIDB != 0 {
		t.Errorf("short cuts to the end: %d stage pairs (had %d), net change +%d -%d, want a shorter chain and +0 -0", got, long, stats.InsertedIDB, stats.DeletedIDB)
	}
}

// TestChainCheckpointRestore: the chain is not persisted.  A restored
// maintainer rebuilds it and then follows the original update for
// update; a checkpoint whose possibly-true part is not the model's —
// here, does not even contain the true part — is refused.
func TestChainCheckpointRestore(t *testing.T) {
	for _, src := range []string{winSrc, mixedSrc, tcSrc} {
		prog := parser.MustProgram(src)
		db := graphs.Random(rand.New(rand.NewSource(5)), 6, 0.3).Database()
		db.MustEnsure("F", 2)
		m, err := incr.New(prog, db, core.WellFounded)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		fresh := 0
		for step := 0; step < 5; step++ {
			ins, del := randomBatch(rng, []string{"E", "F"}, 6, &fresh)
			if _, err := m.Update(ins, del); err != nil {
				t.Fatal(err)
			}
		}
		cp := m.Checkpoint()
		r, err := incr.RestoreWith(cp, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mirror := relation.NewDatabaseOn(m.Universe().Clone())
		for name, rel := range m.Snapshot().Rels {
			if !prog.IDB()[name] {
				mirror.Set(name, rel.Clone())
			}
		}
		for step := 0; step < 10; step++ {
			ins, del := randomBatch(rng, []string{"E", "F"}, 6, &fresh)
			if _, err := m.Update(ins, del); err != nil {
				t.Fatal(err)
			}
			checkUpdate(t, r, core.WellFounded, prog, mirror, ins, del, true)
			if got, want := stateOf(r), stateOf(m); got != want {
				t.Fatalf("step %d: restored maintainer diverged\nrestored:\n%s\noriginal:\n%s", step, got, want)
			}
		}

		// A stratifiable program's total model is checkpointed without
		// a possible part; tamper with the copy of the true part that
		// older images carried as one.
		checkpoint := func() *incr.Checkpoint {
			cp := m.Checkpoint()
			if cp.Possible == nil {
				cp.Possible = maps.Clone(cp.IDB)
			}
			return cp
		}
		for pred := range prog.IDB() {
			cp = checkpoint()
			delete(cp.Possible, pred)
			if cp.IDB[pred].Empty() {
				continue
			}
			if _, err := incr.RestoreWith(cp, engine.Options{}); err == nil {
				t.Errorf("%s: restore accepted a checkpoint whose possible part lacks %s, which its true part has", src, pred)
			}
			cp = checkpoint()
			cp.Possible[pred] = relation.Full(cp.Possible[pred].Arity(), cp.Universe.Size())
			if _, err := incr.RestoreWith(cp, engine.Options{}); err == nil {
				t.Errorf("%s: restore accepted a checkpoint with every %s atom possible", src, pred)
			}
		}
	}
}

// BenchmarkGammaChainUpdate toggles random edges of a seeded win-move
// board maintained under the well-founded semantics: each update walks
// the Γ chain as dozens of tiny passes, so allocs/op is their fixed
// cost.
func BenchmarkGammaChainUpdate(b *testing.B) {
	const n = 60
	g := graphs.Random(rand.New(rand.NewSource(1)), n, 0.05)
	m, err := incr.New(parser.MustProgram(winSrc), g.Database(), core.WellFounded)
	if err != nil {
		b.Fatal(err)
	}
	edges := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		edges[e] = true
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		f := []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(e[0]), graphs.VertexName(e[1])}}}
		if edges[e] {
			_, err = m.Update(nil, f)
		} else {
			_, err = m.Update(f, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		edges[e] = !edges[e]
	}
}
