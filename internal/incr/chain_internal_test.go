package incr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// TestChainRecomputesOnlyOnUniverseGrowth counts from-scratch
// evaluations from outside the code that decides them: a full
// alternating fixpoint replaces every stage's relations, a maintained
// update keeps the first stage's and edits them in place.  Under rules
// that enumerate the universe the count must be the number of updates
// that interned a new constant; under safe rules it must be zero.
func TestChainRecomputesOnlyOnUniverseGrowth(t *testing.T) {
	for _, tc := range []struct {
		src    string
		unsafe bool
	}{
		{"win(X) :- E(X,Y), !win(Y).", false},
		{"p(X) :- !q(X), !E(X,X).\nq(X) :- E(X,Y), !p(Y).", true},
	} {
		m, err := New(parser.MustProgram(tc.src), graphs.Random(rand.New(rand.NewSource(3)), 6, 0.3).Database(), core.WellFounded)
		if err != nil {
			t.Fatal(err)
		}
		if m.method != core.Alternation {
			t.Fatalf("%q is not maintained as a chain", tc.src)
		}
		rng := rand.New(rand.NewSource(4))
		evaluations, grew, effective := 0, 0, 0
		for step := 0; step < 200; step++ {
			name := func() string {
				if rng.Intn(10) == 0 {
					return fmt.Sprintf("w%d", step)
				}
				return graphs.VertexName(rng.Intn(6))
			}
			f := []Fact{{Pred: "E", Args: []string{name(), name()}}}
			first := make(map[string]*relation.Relation)
			for pred, r := range m.chain[1] {
				first[pred] = r
			}
			size := m.Universe().Size()
			var stats *UpdateStats
			if rng.Intn(2) == 0 {
				stats, err = m.Update(f, nil)
			} else {
				stats, err = m.Update(nil, f)
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Universe().Size() > size {
				grew++
			}
			if stats.Strategy == "alternation" {
				effective++
			}
			for pred, r := range m.chain[1] {
				if first[pred] != r {
					evaluations++
					break
				}
			}
		}
		want := 0
		if tc.unsafe {
			want = grew
		}
		if evaluations != want || grew == 0 || effective < 50 {
			t.Errorf("%q: %d from-scratch evaluations over 200 updates, %d of which grew the universe and %d were maintained by alternation; want %d evaluations",
				tc.src, evaluations, grew, effective, want)
		}
	}
}

// TestCascadeCutFollowsRecursion pins which layers stop their DRed
// cascades after one pass: a stratum reading its own predicate
// positively in one rule of two stays recursive, and the win-move Γ
// stage, which reads win only negated, does not.  Both still match a
// recompute after every update.
func TestCascadeCutFollowsRecursion(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		src       string
		sem       core.Semantics
		layer     func(*Maintainer) *semantics.Layer
		recursive bool
	}{
		{"s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).", core.LFP, func(m *Maintainer) *semantics.Layer { return m.strata[0] }, true},
		{"win(X) :- E(X,Y), !win(Y).", core.WellFounded, func(m *Maintainer) *semantics.Layer { return m.gamma }, false},
	} {
		prog := parser.MustProgram(tc.src)
		g := graphs.Random(rand.New(rand.NewSource(5)), n, 0.3)
		m, err := New(prog, g.Database(), tc.sem)
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.layer(m).Recursive; got != tc.recursive {
			t.Fatalf("%q: recursive = %v, want %v", tc.src, got, tc.recursive)
		}
		edges := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			edges[e] = true
		}
		rng := rand.New(rand.NewSource(6))
		for step := 0; step < 40; step++ {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			f := []Fact{{Pred: "E", Args: []string{graphs.VertexName(e[0]), graphs.VertexName(e[1])}}}
			if edges[e] {
				_, err = m.Update(nil, f)
			} else {
				_, err = m.Update(f, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			edges[e] = !edges[e]
			g = graphs.New(n)
			for e, ok := range edges {
				if ok {
					g.AddEdge(e[0], e[1])
				}
			}
			want, err := core.Eval(prog, g.Database(), tc.sem)
			if err != nil {
				t.Fatal(err)
			}
			got, exp := m.State().Format(m.Universe()), want.State.Format(want.Universe)
			if wf := m.WF(); wf != nil {
				got += "possible:\n" + wf.Possible.Format(m.Universe())
				exp += "possible:\n" + want.WF.Possible.Format(want.Universe)
			}
			if got != exp {
				t.Fatalf("%q step %d: maintained\n%s\nrecompute\n%s", tc.src, step, got, exp)
			}
		}
	}
}
