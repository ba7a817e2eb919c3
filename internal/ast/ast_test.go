package ast

import (
	"strings"
	"testing"
)

func program(rules ...Rule) *Program { return &Program{Rules: rules} }

// pi1 is the paper's program π₁:  T(x) ← E(y,x), ¬T(y).
func pi1() *Program {
	return program(
		NewRule(NewAtom("T", Var("X")),
			Pos(NewAtom("E", Var("Y"), Var("X"))),
			Neg(NewAtom("T", Var("Y")))),
	)
}

// pi2 is the paper's program π₂ with IDB S1, S2.
func pi2() *Program {
	return program(
		NewRule(NewAtom("S1", Var("X"), Var("Y")),
			Pos(NewAtom("E", Var("X"), Var("Y")))),
		NewRule(NewAtom("S1", Var("X"), Var("Y")),
			Pos(NewAtom("E", Var("X"), Var("Z"))),
			Pos(NewAtom("S1", Var("Z"), Var("Y")))),
		NewRule(NewAtom("S2", Var("X"), Var("Y"), Var("Z"), Var("W")),
			Pos(NewAtom("S1", Var("X"), Var("Y"))),
			Neg(NewAtom("S1", Var("Z"), Var("W")))),
	)
}

// pi3 is the paper's transitive-closure DATALOG program π₃.
func pi3() *Program {
	return program(
		NewRule(NewAtom("S", Var("X"), Var("Y")),
			Pos(NewAtom("E", Var("X"), Var("Y")))),
		NewRule(NewAtom("S", Var("X"), Var("Y")),
			Pos(NewAtom("E", Var("X"), Var("Z"))),
			Pos(NewAtom("S", Var("Z"), Var("Y")))),
	)
}

func TestEDBIDBSplit(t *testing.T) {
	p := pi2()
	idb := p.IDBList()
	edb := p.EDB()
	if len(idb) != 2 || idb[0] != "S1" || idb[1] != "S2" {
		t.Errorf("IDB = %v", idb)
	}
	if len(edb) != 1 || !edb["E"] {
		t.Errorf("EDB = %v", edb)
	}
}

func TestArities(t *testing.T) {
	p := pi2()
	ar, err := p.Arities()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"E": 2, "S1": 2, "S2": 4}
	for k, v := range want {
		if ar[k] != v {
			t.Errorf("arity(%s) = %d, want %d", k, ar[k], v)
		}
	}
}

func TestAritiesConflict(t *testing.T) {
	p := program(
		NewRule(NewAtom("T", Var("X")), Pos(NewAtom("E", Var("X")))),
		NewRule(NewAtom("T", Var("X"), Var("Y")), Pos(NewAtom("E", Var("X")))),
	)
	if _, err := p.Arities(); err == nil {
		t.Error("conflicting arities not detected")
	}
}

func TestValidateCarrier(t *testing.T) {
	p := pi1()
	p.Carrier = "T"
	if _, err := p.Validate(); err != nil {
		t.Errorf("valid carrier rejected: %v", err)
	}
	p.Carrier = "E"
	if _, err := p.Validate(); err == nil {
		t.Error("EDB carrier accepted")
	}
	empty := program()
	if _, err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want Class
	}{
		{"pi3 positive", pi3(), ClassPositive},
		{"pi2 stratified", pi2(), ClassStratified},
		{"pi1 general", pi1(), ClassGeneral},
		{"semipositive", program(
			NewRule(NewAtom("T", Var("X")),
				Pos(NewAtom("V", Var("X"))),
				Neg(NewAtom("E", Var("X"), Var("X")))),
		), ClassSemipositive},
		{"neq makes non-positive", program(
			NewRule(NewAtom("T", Var("X")),
				Pos(NewAtom("V", Var("X"))),
				Neq(Var("X"), Var("Y"))),
		), ClassSemipositive},
		{"eq stays positive", program(
			NewRule(NewAtom("T", Var("X")),
				Pos(NewAtom("V", Var("X"))),
				Eq(Var("X"), Var("X"))),
		), ClassPositive},
	}
	for _, c := range cases {
		if got := c.p.Classify(); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassPositive:     "positive",
		ClassSemipositive: "semipositive",
		ClassStratified:   "stratified",
		ClassGeneral:      "general",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q", int(c), c.String())
		}
	}
}

func TestStratifyPi2(t *testing.T) {
	s, err := pi2().Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStrata() != 2 {
		t.Fatalf("NumStrata = %d, want 2", s.NumStrata())
	}
	if s.Level["S1"] != 0 || s.Level["S2"] != 1 {
		t.Errorf("levels: S1=%d S2=%d", s.Level["S1"], s.Level["S2"])
	}
	if s.Level["E"] != 0 {
		t.Errorf("EDB level = %d", s.Level["E"])
	}
}

func TestStratifyRejectsPi1(t *testing.T) {
	if _, err := pi1().Stratify(); err == nil {
		t.Error("π₁ (recursion through negation) was stratified")
	}
}

func TestStratifyToggle(t *testing.T) {
	// The paper's toggle rule T(z) ← ¬Q(u), ¬T(w) is not stratifiable.
	p := program(
		NewRule(NewAtom("Q", Var("X")), Pos(NewAtom("V", Var("X")))),
		NewRule(NewAtom("T", Var("Z")),
			Neg(NewAtom("Q", Var("U"))),
			Neg(NewAtom("T", Var("W")))),
	)
	if _, err := p.Stratify(); err == nil {
		t.Error("toggle program was stratified")
	}
}

func TestStratifyChain(t *testing.T) {
	// A ← E;  B ← ¬A;  C ← ¬B:  three strata.
	p := program(
		NewRule(NewAtom("A", Var("X")), Pos(NewAtom("E", Var("X")))),
		NewRule(NewAtom("B", Var("X")), Neg(NewAtom("A", Var("X")))),
		NewRule(NewAtom("C", Var("X")), Neg(NewAtom("B", Var("X")))),
	)
	s, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStrata() != 3 {
		t.Fatalf("NumStrata = %d, want 3", s.NumStrata())
	}
	if s.Level["A"] != 0 || s.Level["B"] != 1 || s.Level["C"] != 2 {
		t.Errorf("levels = %v", s.Level)
	}
	rules := p.RulesForStratum(s, 1)
	if len(rules) != 1 || rules[0].Head.Pred != "B" {
		t.Errorf("RulesForStratum(1) = %v", rules)
	}
}

func TestDependencyGraph(t *testing.T) {
	edges := pi2().DependencyGraph()
	// Expect: S1->E (pos), S1->S1 (pos), S2->S1 (neg subsumes pos).
	var s2s1 *DepEdge
	for i := range edges {
		if edges[i].From == "S2" && edges[i].To == "S1" {
			s2s1 = &edges[i]
		}
	}
	if s2s1 == nil || !s2s1.Negative {
		t.Errorf("S2->S1 edge wrong: %+v", edges)
	}
	if len(edges) != 3 {
		t.Errorf("edge count = %d, want 3: %v", len(edges), edges)
	}
}

func TestRuleVarsAndPositiveVars(t *testing.T) {
	r := NewRule(NewAtom("S2", Var("X"), Var("Y"), Var("Z"), Var("W")),
		Pos(NewAtom("S1", Var("X"), Var("Y"))),
		Neg(NewAtom("S1", Var("Z"), Var("W"))))
	vars := r.Vars()
	if len(vars) != 4 {
		t.Fatalf("Vars = %v", vars)
	}
	pv := r.PositiveVars()
	if !pv["X"] || !pv["Y"] || pv["Z"] || pv["W"] {
		t.Errorf("PositiveVars = %v", pv)
	}
}

func TestRuleVarsIncludesConstraintVars(t *testing.T) {
	r := NewRule(NewAtom("T", Var("X")), Neq(Var("X"), Var("Y")))
	vars := r.Vars()
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestStringRendering(t *testing.T) {
	p := pi1()
	got := strings.TrimSpace(p.String())
	want := "T(X) :- E(Y,X), !T(Y)."
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}

	fact := NewRule(NewAtom("E", Const("a"), Const("b")))
	if fact.String() != "E(a,b)." {
		t.Errorf("fact String = %q", fact.String())
	}

	eqr := NewRule(NewAtom("T", Var("X")),
		Pos(NewAtom("V", Var("X"))), Eq(Var("X"), Const("a")), Neq(Var("X"), Var("Y")))
	want = "T(X) :- V(X), X = a, X != Y."
	if eqr.String() != want {
		t.Errorf("eq rule String = %q, want %q", eqr.String(), want)
	}
}

func TestConstQuoting(t *testing.T) {
	// Constants that look like variables must be quoted so the printed
	// form re-parses to the same AST.
	c := Const("Upper")
	if c.String() != "\"Upper\"" {
		t.Errorf("String = %q", c.String())
	}
	if Const("a b").String() != "\"a b\"" {
		t.Errorf("String = %q", Const("a b").String())
	}
	if Const("ab1").String() != "ab1" {
		t.Errorf("String = %q", Const("ab1").String())
	}
	if Const("").String() != "\"\"" {
		t.Errorf("empty const = %q", Const("").String())
	}
}

func TestZeroArityAtom(t *testing.T) {
	a := NewAtom("Halt")
	if a.String() != "Halt" || a.Arity() != 0 {
		t.Errorf("zero-arity atom: %q/%d", a.String(), a.Arity())
	}
}
