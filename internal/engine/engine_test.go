package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/relation"
)

// pathDB builds the paper's directed path Lₙ: vertices 1..n, edges
// E(i, i+1).
func pathDB(n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 1; i < n; i++ {
		db.AddFact("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	// Make sure vertex n exists even as an isolated endpoint of L₁.
	db.AddConstant(fmt.Sprint(n))
	return db
}

// cycleDB builds the paper's directed cycle Cₙ.
func cycleDB(n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 1; i < n; i++ {
		db.AddFact("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.AddFact("E", fmt.Sprint(n), "1")
	return db
}

// unary reads a unary relation as a set of constant names.
func unary(db *relation.Database, s State, pred string) map[string]bool {
	out := make(map[string]bool)
	s[pred].Each(func(t relation.Tuple) bool {
		out[db.Universe().Name(t[0])] = true
		return true
	})
	return out
}

const pi1Src = "T(X) :- E(Y,X), !T(Y)."

func TestApplyPi1EmptyState(t *testing.T) {
	// Θ(∅) on π₁: every vertex with an incoming edge enters T, since
	// ¬T(y) holds vacuously.  Paper: Θ(T) = {a : ∃y E(y,a) ∧ ¬T(y)}.
	db := pathDB(4)
	in := MustNew(parser.MustProgram(pi1Src), db)
	got := unary(db, in.Apply(in.NewState()), "T")
	want := map[string]bool{"2": true, "3": true, "4": true}
	if len(got) != len(want) {
		t.Fatalf("Θ(∅) T = %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing %s", k)
		}
	}
}

func TestPi1UniqueFixpointOnPath(t *testing.T) {
	// Paper §2: on Lₙ, π₁ has the unique fixpoint {2,4,…}.
	for n := 2; n <= 7; n++ {
		db := pathDB(n)
		in := MustNew(parser.MustProgram(pi1Src), db)
		s := in.NewState()
		for i := 2; i <= n; i += 2 {
			id, ok := db.Universe().Lookup(fmt.Sprint(i))
			if !ok {
				t.Fatalf("vertex %d missing", i)
			}
			s["T"].Add(relation.Tuple{id})
		}
		if !in.IsFixpoint(s) {
			t.Errorf("L%d: even positions not a fixpoint", n)
		}
		// The empty state and the full state are not fixpoints.
		if in.IsFixpoint(in.NewState()) {
			t.Errorf("L%d: empty state is a fixpoint", n)
		}
	}
}

func TestPi1CycleFixpoints(t *testing.T) {
	// Paper §2: on C₄, the two fixpoints are {1,3} and {2,4}; on C₃
	// there is none (exhaustively checked via subsets here; the
	// fixpoint package re-checks via SAT).
	db := cycleDB(4)
	in := MustNew(parser.MustProgram(pi1Src), db)
	count := 0
	u := db.Universe()
	for mask := 0; mask < 16; mask++ {
		s := in.NewState()
		for i := 1; i <= 4; i++ {
			if mask&(1<<(i-1)) != 0 {
				id, _ := u.Lookup(fmt.Sprint(i))
				s["T"].Add(relation.Tuple{id})
			}
		}
		if in.IsFixpoint(s) {
			count++
			odd := unary(db, s, "T")
			if !(odd["1"] && odd["3"] && len(odd) == 2) && !(odd["2"] && odd["4"] && len(odd) == 2) {
				t.Errorf("unexpected fixpoint %v", odd)
			}
		}
	}
	if count != 2 {
		t.Errorf("C4 fixpoint count = %d, want 2", count)
	}

	db3 := cycleDB(3)
	in3 := MustNew(parser.MustProgram(pi1Src), db3)
	for mask := 0; mask < 8; mask++ {
		s := in3.NewState()
		for i := 1; i <= 3; i++ {
			if mask&(1<<(i-1)) != 0 {
				id, _ := db3.Universe().Lookup(fmt.Sprint(i))
				s["T"].Add(relation.Tuple{id})
			}
		}
		if in3.IsFixpoint(s) {
			t.Errorf("C3 has fixpoint mask %b; paper says none", mask)
		}
	}
}

func TestApplyPi2Operator(t *testing.T) {
	// Paper §2 gives Θ for π₂ explicitly; check on a 2-vertex database.
	src := `
S1(X,Y) :- E(X,Y).
S1(X,Y) :- E(X,Z), S1(Z,Y).
S2(X,Y,Z,W) :- S1(X,Y), !S1(Z,W).
`
	db := relation.NewDatabase()
	db.AddFact("E", "a", "b")
	in := MustNew(parser.MustProgram(src), db)

	s := in.NewState()
	out := in.Apply(s)
	// First component: {(a,b)} since S1 is empty.
	if out["S1"].Len() != 1 {
		t.Errorf("Θ(∅).S1 = %v", out["S1"].Format(db.Universe()))
	}
	// Second component: S1 empty means no (x,y) pairs pass the positive
	// literal, so S2 stays empty.
	if out["S2"].Len() != 0 {
		t.Errorf("Θ(∅).S2 len = %d", out["S2"].Len())
	}

	// Now with S1 = {(a,b)}: S2 = {(a,b)} × complement of S1 (4-1=3 pairs).
	s = out
	out2 := in.Apply(s)
	if out2["S2"].Len() != 3 {
		t.Errorf("Θ².S2 len = %d, want 3", out2["S2"].Len())
	}
}

func TestUnsafeToggleRule(t *testing.T) {
	// The paper's toggle T(z) ← ¬T(w) has no fixpoint on any non-empty
	// universe: Θ(∅) = A and Θ(A) = ∅.
	db := relation.NewDatabase()
	db.AddConstant("a")
	db.AddConstant("b")
	in := MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	empty := in.NewState()
	full := in.Apply(empty)
	if full["T"].Len() != 2 {
		t.Fatalf("Θ(∅) = %v, want full", full["T"].Format(db.Universe()))
	}
	if got := in.Apply(full); got["T"].Len() != 0 {
		t.Errorf("Θ(A) len = %d, want 0", got["T"].Len())
	}
	if in.IsFixpoint(empty) || in.IsFixpoint(full) {
		t.Error("toggle has a fixpoint")
	}
}

func TestGuardedToggle(t *testing.T) {
	// T(z) ← ¬Q(u), ¬T(w): with Q full, T = ∅ is the unique fixpoint
	// (the paper's key gadget in Theorem 1).
	src := `
Q(X) :- V(X).
T(Z) :- !Q(U), !T(W).
`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	db.AddFact("V", "b")
	in := MustNew(parser.MustProgram(src), db)
	s := in.NewState()
	s["Q"].Add(relation.Tuple{0})
	s["Q"].Add(relation.Tuple{1})
	if !in.IsFixpoint(s) {
		t.Error("Q=A, T=∅ should be a fixpoint")
	}
	// With Q not full, the toggle fires.
	s2 := in.NewState()
	s2["Q"].Add(relation.Tuple{0})
	if in.IsFixpoint(s2) {
		t.Error("partial Q should not be a fixpoint")
	}
}

func TestConstantsInRule(t *testing.T) {
	// Head and body constants resolve against the universe.
	src := `P(X, b) :- E(X, a).`
	db := relation.NewDatabase()
	db.AddFact("E", "x", "a")
	db.AddFact("E", "y", "c")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	if out["P"].Len() != 1 {
		t.Fatalf("P = %v", out["P"].Format(db.Universe()))
	}
	bID, _ := db.Universe().Lookup("b")
	xID, _ := db.Universe().Lookup("x")
	if !out["P"].Has(relation.Tuple{xID, bID}) {
		t.Errorf("P missing (x,b): %v", out["P"].Format(db.Universe()))
	}
}

func TestProgramConstantExtendsUniverse(t *testing.T) {
	// A program constant absent from the data is interned (it joins the
	// active domain), so the head constant resolves.
	db := relation.NewDatabase()
	db.AddFact("E", "x", "a")
	in := MustNew(parser.MustProgram("P(fresh) :- E(X, a)."), db)
	out := in.Apply(in.NewState())
	if out["P"].Len() != 1 {
		t.Errorf("P len = %d", out["P"].Len())
	}
	if _, ok := db.Universe().Lookup("fresh"); !ok {
		t.Error("program constant not interned")
	}
}

func TestEqualityPropagation(t *testing.T) {
	src := `P(X,Y) :- E(X,Z), Y = Z.`
	db := relation.NewDatabase()
	db.AddFact("E", "a", "b")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	a, _ := db.Universe().Lookup("a")
	b, _ := db.Universe().Lookup("b")
	if out["P"].Len() != 1 || !out["P"].Has(relation.Tuple{a, b}) {
		t.Errorf("P = %v", out["P"].Format(db.Universe()))
	}
}

func TestInequality(t *testing.T) {
	src := `P(X,Y) :- V(X), V(Y), X != Y.`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	db.AddFact("V", "b")
	db.AddFact("V", "c")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	if out["P"].Len() != 6 {
		t.Errorf("P len = %d, want 6", out["P"].Len())
	}
}

func TestRepeatedVariableInLiteral(t *testing.T) {
	src := `L(X) :- E(X,X).`
	db := relation.NewDatabase()
	db.AddFact("E", "a", "a")
	db.AddFact("E", "a", "b")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	if out["L"].Len() != 1 {
		t.Errorf("L = %v", out["L"].Format(db.Universe()))
	}
}

func TestMissingEDBRelationIsEmpty(t *testing.T) {
	src := `P(X) :- V(X), !M(X). Q(X) :- M(X).`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	if out["P"].Len() != 1 {
		t.Errorf("P len = %d (negated missing EDB should hold)", out["P"].Len())
	}
	if out["Q"].Len() != 0 {
		t.Errorf("Q len = %d (positive missing EDB should fail)", out["Q"].Len())
	}
}

func TestZeroArityPredicates(t *testing.T) {
	src := `
flag :- V(X).
P(X) :- V(X), flag.
Q(X) :- V(X), !flag.
`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	in := MustNew(parser.MustProgram(src), db)
	s0 := in.NewState()
	out := in.Apply(s0)
	if out["flag"].Len() != 1 {
		t.Errorf("flag not derived")
	}
	if out["P"].Len() != 0 || out["Q"].Len() != 1 {
		t.Errorf("round 1: P=%d Q=%d", out["P"].Len(), out["Q"].Len())
	}
	out2 := in.Apply(out)
	if out2["P"].Len() != 1 || out2["Q"].Len() != 0 {
		t.Errorf("round 2: P=%d Q=%d", out2["P"].Len(), out2["Q"].Len())
	}
}

func TestArityConflictWithDatabase(t *testing.T) {
	db := relation.NewDatabase()
	db.AddFact("E", "a")
	if _, err := New(parser.MustProgram("P(X) :- E(X,Y)."), db); err == nil {
		t.Error("arity conflict between program and database not detected")
	}
}

func TestEmptyUniverse(t *testing.T) {
	db := relation.NewDatabase()
	in := MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	out := in.Apply(in.NewState())
	if out["T"].Len() != 0 {
		t.Errorf("empty universe derived tuples: %d", out["T"].Len())
	}
	if !in.IsFixpoint(in.NewState()) {
		t.Error("∅ should be a fixpoint on the empty universe")
	}
}

func TestBodylessRuleWithVariables(t *testing.T) {
	// A bodyless rule with head variables ranges over the universe —
	// the active-domain convention Theorem 4's IN-gate rules rely on.
	db := relation.NewDatabase()
	db.AddConstant("0")
	db.AddConstant("1")
	in := MustNew(parser.MustProgram("G(Z1, 1, Z2)."), db)
	out := in.Apply(in.NewState())
	if out["G"].Len() != 4 {
		t.Errorf("G len = %d, want 4 (2 values × 2 free vars)", out["G"].Len())
	}
}

func TestApplyDeltaEquivalence(t *testing.T) {
	// One inflationary stage computed semi-naively must agree with the
	// naive stage on new tuples.
	src := `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
`
	db := cycleDB(5)
	in := MustNew(parser.MustProgram(src), db)

	prev := in.NewState()
	cur := in.Apply(prev) // stage 1
	delta := cur.Clone()

	for round := 0; round < 10; round++ {
		naive := in.Apply(cur)
		naiveNew := naive.Diff(cur)
		semi := in.Eval(SemiNaive(prev, delta, cur, nil))
		semiNew := semi.Diff(cur)
		if !naiveNew.Equal(semiNew) {
			t.Fatalf("round %d: semi-naive differs\nnaive: %v\nsemi: %v",
				round, naiveNew.Format(db.Universe()), semiNew.Format(db.Universe()))
		}
		if naiveNew.Empty() {
			break
		}
		prev = cur.Clone()
		cur.UnionWith(naiveNew)
		delta = naiveNew
	}
}

// TestEvalNegReadsSeparateState checks that negated literals are read
// against Spec.Neg, not against the positive state.
func TestEvalNegReadsSeparateState(t *testing.T) {
	db := pathDB(3)
	in := MustNew(parser.MustProgram(pi1Src), db)
	pos := in.NewState()
	negFull := State{"T": relation.Full(1, db.Universe().Size())}
	// With neg = full, ¬T(y) always fails, so nothing derives.
	if got := in.Eval(Spec{Pos: pos, Neg: negFull}); got["T"].Len() != 0 {
		t.Errorf("Eval with full Neg derived %d tuples", got["T"].Len())
	}
	// With neg = ∅, every target of an edge derives.
	if got := in.Eval(Spec{Pos: pos, Neg: in.NewState()}); got["T"].Len() != 2 {
		t.Errorf("Eval with empty Neg derived %d tuples, want 2", got["T"].Len())
	}
}

// randomEdgeDB builds a random digraph database over n vertices.
func randomEdgeDB(rng *rand.Rand, n int, p float64) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				db.AddFact("E", fmt.Sprint(i), fmt.Sprint(j))
			}
		}
	}
	return db
}

func TestPropSemiNaiveMatchesNaive(t *testing.T) {
	// Over random graphs and a program mixing recursion and negation
	// through EDB, semi-naive inflationary stages must match naive.
	src := `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
P(X,Y) :- S(X,Y), !E(X,Y).
R(X) :- S(X,X), P(X,Y).
`
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomEdgeDB(rng, 5, 0.3)
		in := MustNew(parser.MustProgram(src), db)

		prev := in.NewState()
		cur := in.Apply(prev)
		delta := cur.Clone()
		for {
			naiveNew := in.Apply(cur).Diff(cur)
			semiNew := in.Eval(SemiNaive(prev, delta, cur, nil)).Diff(cur)
			if !naiveNew.Equal(semiNew) {
				return false
			}
			if naiveNew.Empty() {
				return true
			}
			prev = cur.Clone()
			cur.UnionWith(naiveNew)
			delta = naiveNew
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropThetaDeterministic(t *testing.T) {
	// Θ computed twice on the same inputs is identical (no hidden
	// iteration-order dependence).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomEdgeDB(rng, 4, 0.4)
		in := MustNew(parser.MustProgram(pi1Src), db)
		s := in.NewState()
		for v := 0; v < db.Universe().Size(); v++ {
			if rng.Intn(2) == 0 {
				s["T"].Add(relation.Tuple{v})
			}
		}
		return in.Apply(s).Equal(in.Apply(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
