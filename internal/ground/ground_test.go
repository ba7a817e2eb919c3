package ground

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/sat"
)

func chainDB(n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 1; i < n; i++ {
		db.AddFact("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.AddConstant(fmt.Sprint(n))
	return db
}

func TestCompletionVariablesCoverAtomSpace(t *testing.T) {
	in := engine.MustNew(parser.MustProgram("T(X) :- E(Y,X), !T(Y)."), chainDB(3))
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.atoms) != 3 {
		t.Fatalf("%d atoms, want 3", len(comp.atoms))
	}
	for v, a := range comp.atoms {
		if a.Pred != "T" || len(a.Tuple) != 1 {
			t.Errorf("atom %d = %+v", v+1, a)
		}
	}
	if got := comp.AtomVars(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("AtomVars = %v", got)
	}
}

func TestCompletionModelsAreFixpoints(t *testing.T) {
	// Every model of the completion must be a fixpoint and vice versa
	// (checked by direct solve + IsFixpoint here; the exhaustive
	// equivalence is property-tested in package fixpoint).
	in := engine.MustNew(parser.MustProgram("T(X) :- E(Y,X), !T(Y)."), chainDB(4))
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(comp.Formula)
	if s.Solve() != sat.Sat {
		t.Fatal("completion unsatisfiable on L4")
	}
	st := comp.StateOfSlice(s.Model())
	if !in.IsFixpoint(st) {
		t.Fatalf("model is not a fixpoint: %v", st.Format(in.Universe()))
	}
}

func TestFactorizationKeepsFormulaSmall(t *testing.T) {
	// The toggle rule T(z) ← ¬Q(u), ¬T(w) must ground to O(n) clauses
	// per head atom (factorized), not O(n²).
	src := `
Q(X) :- V(X).
T(Z) :- !Q(U), !T(W).
`
	grow := func(n int) int {
		db := relation.NewDatabase()
		for i := 0; i < n; i++ {
			db.AddFact("V", fmt.Sprint(i))
		}
		in := engine.MustNew(parser.MustProgram(src), db)
		comp, err := Complete(in)
		if err != nil {
			t.Fatal(err)
		}
		return len(comp.Formula.Clauses)
	}
	c10, c20 := grow(10), grow(20)
	// Linear factorization: doubling n should roughly double clauses;
	// a quadratic encoding would quadruple.
	if c20 > 3*c10 {
		t.Errorf("clauses grew superlinearly: n=10 → %d, n=20 → %d", c10, c20)
	}
}

func TestForcedAtoms(t *testing.T) {
	// Q(x) ← V(x) makes Q(a) unconditionally true when V(a) holds; the
	// completion must force it.
	src := "Q(X) :- V(X)."
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	db.AddConstant("b")
	in := engine.MustNew(parser.MustProgram(src), db)
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(comp.Formula)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	st := comp.StateOfSlice(s.Model())
	aID, _ := db.Universe().Lookup("a")
	bID, _ := db.Universe().Lookup("b")
	if !st["Q"].Has(relation.Tuple{aID}) {
		t.Error("Q(a) not forced true")
	}
	if st["Q"].Has(relation.Tuple{bID}) {
		t.Error("Q(b) true; completion must force it false")
	}
	// And it must be the unique model over atom vars.
	count, exact := s.CountProjected(comp.AtomVars(), 0)
	// One model was already consumed implicitly? CountProjected
	// restarts enumeration on the same solver: the first Solve above
	// did not add a blocking clause, so the count is still exact.
	if !exact || count != 1 {
		t.Errorf("count=%d exact=%v, want unique", count, exact)
	}
}

func TestConstantsInHeads(t *testing.T) {
	// G(z1, 1, z2) over domain {0,1}: fixpoints must set exactly the
	// tuples with middle component 1.
	src := `G(Z1, 1, Z2) :- D(Z1), D(Z2).`
	db := relation.NewDatabase()
	db.AddFact("D", "0")
	db.AddFact("D", "1")
	in := engine.MustNew(parser.MustProgram(src), db)
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(comp.Formula)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	st := comp.StateOfSlice(s.Model())
	if st["G"].Len() != 4 {
		t.Errorf("|G| = %d, want 4", st["G"].Len())
	}
	one, _ := db.Universe().Lookup("1")
	st["G"].Each(func(tu relation.Tuple) bool {
		if tu[1] != one {
			t.Errorf("unexpected tuple %v", tu)
		}
		return true
	})
}

func TestEqNeqEvaluatedAway(t *testing.T) {
	src := `P(X) :- V(X), X != bad.`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	db.AddFact("V", "bad")
	in := engine.MustNew(parser.MustProgram(src), db)
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(comp.Formula)
	if s.Solve() != sat.Sat {
		t.Fatal("unsat")
	}
	st := comp.StateOfSlice(s.Model())
	if st["P"].Len() != 1 {
		t.Errorf("|P| = %d, want 1", st["P"].Len())
	}
}

func TestMaxAtomsRespected(t *testing.T) {
	src := "S(X,Y) :- E(X,Y)."
	in := engine.MustNew(parser.MustProgram(src), chainDB(10))
	defer func(n int) { maxAtoms = n }(maxAtoms)
	maxAtoms = 50
	if _, err := Complete(in); err == nil {
		t.Error("expected maxAtoms error (100 atoms > 50)")
	}
	maxAtoms = 100
	if _, err := Complete(in); err != nil {
		t.Errorf("100 atoms should fit exactly: %v", err)
	}
}

func TestEmptyUniverseCompletion(t *testing.T) {
	db := relation.NewDatabase()
	in := engine.MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	comp, err := Complete(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.atoms) != 0 {
		t.Errorf("%d atoms, want 0", len(comp.atoms))
	}
	st, _ := sat.SolveFormula(comp.Formula)
	if st != sat.Sat {
		t.Error("empty completion should be SAT (∅ is the fixpoint)")
	}
}
