package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

// componentSrc is a program whose rule bodies split into two or three
// variable-disjoint components, named here by their variables:
//   - D: {X,Z,Y} and {Xs,Ys}, a negated literal whose variables occur
//     only under negation — the distance program's S3;
//   - F: {X,Y} with a comparison inside it, {W}, and {U}, which binds
//     no head variable and is non-empty once S has a cycle;
//   - N: {X} and {U,Y}, an existence check no binding passes;
//   - G: {X} with the ground literals ¬S(a,b) and E(a,c), and {W}, a
//     head variable no body literal names;
//   - T: the paper's unsafe toggle, {Z}, {U} and {W}.
const componentSrc = `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
D(X,Y,Xs,Ys) :- E(X,Z), S(Z,Y), !S(Xs,Ys).
F(X,W) :- S(X,Y), Y != X, V(W), S(U,U).
N(X) :- V(X), E(U,Y), U = Y, !E(U,U).
G(X,W) :- V(X), !S(a,b), E(a,c), S(X,c).
T(Z) :- !V(U), !T(W).
`

// componentDB is a random graph over the constants a–e with a random
// subset of them in V.
func componentDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	names := []string{"a", "b", "c", "d", "e"}
	for _, x := range names {
		db.AddConstant(x)
		if rng.Intn(2) == 0 {
			db.AddFact("V", x)
		}
		for _, y := range names {
			if rng.Float64() < 0.3 {
				db.AddFact("E", x, y)
			}
		}
	}
	return db
}

// TestComponentsShareNoVariable pins the split of componentSrc's rules
// into as many components as its comment names.
func TestComponentsShareNoVariable(t *testing.T) {
	in := MustNew(parser.MustProgram(componentSrc), componentDB(rand.New(rand.NewSource(1))))
	for i, want := range []int{1, 1, 2, 3, 2, 2, 3} {
		rp := in.plans[i]
		order := make([]int, len(rp.positives))
		for k := range order {
			order[k] = k
		}
		if ep := buildExec(rp, order); len(ep.comps) != want {
			t.Errorf("%v: %d components, want %d", rp.src, len(ep.comps), want)
		}
	}
}

// TestPropComponentsMatchTheta checks the product of components against
// the grounded Θ oracle at every stage of componentSrc's inflationary
// iteration on random graphs: a full pass, a Within pass, and a pass of
// Deltas and Within together.  The delta pass drives S with the last
// stage's new tuples over the stage before; its oracle is Θ of the
// program whose rules read one positive S literal from that delta, every
// other literal as before, cut to the Within filter.
func TestPropComponentsMatchTheta(t *testing.T) {
	prog := parser.MustProgram(componentSrc)
	deltaProg := deltaProgram(prog, "S", "dS")
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := MustNew(prog, componentDB(rng))
		u := in.Universe()
		old := in.NewState()
		for cur, stage := in.NewState(), 0; ; stage++ {
			name := fmt.Sprintf("seed %d, stage %d", seed, stage)
			want := oracleTheta(in, cur)
			got := in.Apply(cur)
			if d := wforacle.Diff("derived", wforacle.Atoms(u, got), want); d != "" {
				t.Fatalf("%s: Θ differs from the oracle's: %s", name, d)
			}

			// The filter keeps every other tuple of Θ(S) and adds
			// tuples Θ(S) may lack.
			within, keep := in.NewState(), map[string]bool{}
			for _, pred := range in.idbList {
				rel, n := got[pred], 0
				for off := range int32(rel.Len()) {
					if n++; n%2 == 0 {
						within[pred].Add(rel.At(off))
					}
				}
				tu := make(relation.Tuple, in.arities[pred])
				for range 3 {
					for i := range tu {
						tu[i] = rng.Intn(u.Size())
					}
					within[pred].Add(tu)
				}
			}
			for a := range wforacle.Atoms(u, within) {
				keep[a] = true
			}
			cut := func(m map[string]bool) map[string]bool {
				out := map[string]bool{}
				for a := range m {
					if keep[a] {
						out[a] = true
					}
				}
				return out
			}
			got = in.Eval(Spec{Pos: cur, Within: within})
			if d := wforacle.Diff("derived", wforacle.Atoms(u, got), cut(want)); d != "" {
				t.Fatalf("%s: the Within pass differs from the oracle's: %s", name, d)
			}

			delta := cur["S"].Diff(old["S"])
			sp := Spec{Pos: cur, Within: within, Deltas: map[string]Delta{"S": {PosDriver: delta, Before: Overlay{Base: old["S"]}}}}
			got = in.Eval(sp)
			rels := map[string]*relation.Relation{"dS": delta}
			for _, pred := range in.db.Names() {
				rels[pred] = in.db.Relation(pred)
			}
			for pred, r := range cur {
				rels[pred] = r
			}
			domain, facts := wforacle.Input(deltaProg, u, rels)
			dwant := wforacle.Theta(deltaProg, domain, facts, wforacle.Atoms(u, cur))
			if d := wforacle.Diff("derived", wforacle.Atoms(u, got), cut(dwant)); d != "" {
				t.Fatalf("%s: the Deltas and Within pass differs from the oracle's: %s", name, d)
			}

			next := cur.Clone()
			if union(next, in.Apply(cur)) == 0 {
				break
			}
			old, cur = cur, next
		}
	}
}

// deltaProgram returns a copy of prog with one rule per positive literal
// over pred, that literal reading dpred instead.
func deltaProgram(prog *ast.Program, pred, dpred string) *ast.Program {
	out := &ast.Program{}
	for _, r := range prog.Rules {
		for i, l := range r.Body {
			if l.Kind == ast.LitPos && l.Atom.Pred == pred {
				body := slices.Clone(r.Body)
				body[i].Atom.Pred = dpred
				out.Rules = append(out.Rules, ast.Rule{Head: r.Head, Body: body})
			}
		}
	}
	return out
}

// TestProductKeepsLowestLevels checks the levels a product emits: on a
// positive program whose rules split, evaluated semi-naively into a
// state that keeps levels, every tuple's level is the inflationary
// stage it first appears at in the oracle — one past the highest of
// its parts' lowest levels, the lowest over all its derivations.  One
// full pass over that fixpoint into an empty state, which meets every
// derivation at once, must emit each tuple at the same level.
func TestProductKeepsLowestLevels(t *testing.T) {
	prog := parser.MustProgram(`
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
R(X,Y,W) :- S(X,Y), S(W,W).
Q(X) :- S(X,X), S(U,V), U != V.
`)
	for seed := int64(0); seed < 10; seed++ {
		db := componentDB(rand.New(rand.NewSource(seed)))
		in := MustNew(prog, db)
		in.KeepLevels()
		cur := in.NewState()
		prev := cur.View()
		for delta := in.Eval(Spec{Pos: cur, Into: cur}); !delta.Empty(); {
			sp := SemiNaive(prev, delta, cur, nil)
			sp.Into, prev = cur, cur.View()
			delta = in.Eval(sp)
		}
		again := in.NewState()
		in.Eval(Spec{Pos: cur, Into: again})
		domain, facts := wforacle.Input(prog, in.Universe(), map[string]*relation.Relation{"E": db.Relation("E")})
		stages := wforacle.Inflationary(prog, domain, facts)
		for _, pred := range in.idbList {
			rel := cur[pred]
			if !rel.Equal(again[pred]) {
				t.Fatalf("seed %d: a full pass over the fixpoint derives %s, want %s", seed, again[pred].Format(in.Universe()), rel.Format(in.Universe()))
			}
			for off := range int32(rel.Len()) {
				t1 := rel.At(off)
				args := make([]string, len(t1))
				for i, v := range t1 {
					args[i] = in.Universe().Name(v)
				}
				key := wforacle.Key(pred, args)
				stage := slices.IndexFunc(stages, func(s map[string]bool) bool { return s[key] }) + 1
				if lv, lv2 := rel.Level(off), again[pred].Level(again[pred].OffsetOf(t1)); int(lv) != stage || lv2 != lv {
					t.Fatalf("seed %d: %s(%s) has level %d, and %d after a full pass; first derived at stage %d", seed, pred, strings.Join(args, ","), lv, lv2, stage)
				}
			}
		}
	}
}
