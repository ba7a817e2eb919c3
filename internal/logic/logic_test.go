package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/relation"
)

// smallDB builds a random database over vocabulary E/2, V/1 with
// universe size n.
func smallDB(rng *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		db.AddConstant(names[i])
	}
	db.MustEnsure("E", 2)
	db.MustEnsure("V", 1)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			db.AddFact("V", names[i])
		}
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				db.AddFact("E", names[i], names[j])
			}
		}
	}
	return db
}

// randomFormula builds a random FO sentence of bounded depth over
// E/2, V/1 and the given variable pool.
func randomFormula(rng *rand.Rand, depth int, scope []string) Formula {
	if depth == 0 || (len(scope) > 0 && rng.Intn(3) == 0) {
		// Leaf: atom or equality over in-scope variables.
		v := func() ast.Term { return ast.Var(scope[rng.Intn(len(scope))]) }
		if len(scope) == 0 {
			return Eq{ast.Const("a"), ast.Const("a")}
		}
		switch rng.Intn(3) {
		case 0:
			return Atom{Pred: "V", Args: []ast.Term{v()}}
		case 1:
			return Atom{Pred: "E", Args: []ast.Term{v(), v()}}
		default:
			return Eq{v(), v()}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return Not{randomFormula(rng, depth-1, scope)}
	case 1:
		return And{[]Formula{randomFormula(rng, depth-1, scope), randomFormula(rng, depth-1, scope)}}
	case 2:
		return Or{[]Formula{randomFormula(rng, depth-1, scope), randomFormula(rng, depth-1, scope)}}
	case 3:
		nv := string(rune('X' + len(scope)%3))
		name := nv + "v" // ensure upper-case initial, unique-ish
		name = []string{"X1", "Y1", "Z1", "X2", "Y2"}[len(scope)%5]
		return Exists{[]string{name}, randomFormula(rng, depth-1, append(scope, name))}
	default:
		name := []string{"X1", "Y1", "Z1", "X2", "Y2"}[len(scope)%5]
		return Forall{[]string{name}, randomFormula(rng, depth-1, append(scope, name))}
	}
}

func TestEvalBasics(t *testing.T) {
	db := relation.NewDatabase()
	db.AddFact("E", "a", "b")
	db.AddFact("V", "a")

	cases := []struct {
		f    Formula
		want bool
	}{
		{A("V", "X"), false}, // unbound variable: atom is false
		{Atom{"V", []ast.Term{ast.Const("a")}}, true},
		{Atom{"V", []ast.Term{ast.Const("b")}}, false},
		{Atom{"E", []ast.Term{ast.Const("a"), ast.Const("b")}}, true},
		{Not{Atom{"V", []ast.Term{ast.Const("b")}}}, true},
		{Exists{[]string{"X"}, A("V", "X")}, true},
		{Forall{[]string{"X"}, A("V", "X")}, false},
		{Forall{[]string{"X"}, Or{[]Formula{A("V", "X"), Not{A("V", "X")}}}}, true},
		{Exists{[]string{"X", "Y"}, A("E", "X", "Y")}, true},
		{Forall{[]string{"X"}, Exists{[]string{"Y"}, A("E", "X", "Y")}}, false},
		{Eq{ast.Const("a"), ast.Const("a")}, true},
		{Eq{ast.Const("a"), ast.Const("b")}, false},
		{Atom{"Missing", []ast.Term{ast.Const("a")}}, false},
	}
	for i, c := range cases {
		if got := Eval(db, c.f, map[string]int{}); got != c.want {
			t.Errorf("case %d (%s): got %v, want %v", i, Format(c.f), got, c.want)
		}
	}
}

func TestPropNNFPreservesEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := smallDB(rng, 2+rng.Intn(2))
		formula := randomFormula(rng, 3, nil)
		return Eval(db, formula, map[string]int{}) == Eval(db, NNF(formula), map[string]int{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// rebuild wraps a matrix with a quantifier prefix, undoing Prenex.
func rebuild(blocks []Block, matrix Formula) Formula {
	f := matrix
	for i := len(blocks) - 1; i >= 0; i-- {
		if blocks[i].Forall {
			f = Forall{blocks[i].Vars, f}
		} else {
			f = Exists{blocks[i].Vars, f}
		}
	}
	return f
}

func TestPropPrenexPreservesEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := smallDB(rng, 2+rng.Intn(2)) // nonempty universe (prenex assumption)
		formula := NNF(randomFormula(rng, 3, nil))
		blocks, matrix := Prenex(formula)
		return Eval(db, formula, map[string]int{}) == Eval(db, rebuild(blocks, matrix), map[string]int{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPrenexMatrixQuantifierFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		formula := NNF(randomFormula(rng, 4, nil))
		_, matrix := Prenex(formula)
		if _, err := DNF(matrix); err != nil {
			t.Fatalf("matrix not quantifier-free or not NNF: %v\n%s", err, Format(matrix))
		}
	}
}

func TestPropDNFPreservesEval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := smallDB(rng, 2)
		formula := NNF(randomFormula(rng, 3, nil))
		_, matrix := Prenex(formula)
		disj, err := DNF(matrix)
		if err != nil {
			return false
		}
		// Evaluate the DNF under all assignments of its free variables
		// and compare with the matrix.
		fv := FreeVars(matrix)
		env := map[string]int{}
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(fv) {
				want := Eval(db, matrix, env)
				got := false
				for _, conj := range disj {
					all := true
					for _, l := range conj {
						var f Formula
						if l.IsEq {
							f = Eq{l.Left, l.Right}
						} else {
							f = Atom{l.Pred, l.Args}
						}
						v := Eval(db, f, env)
						if l.Neg {
							v = !v
						}
						if !v {
							all = false
							break
						}
					}
					if all {
						got = true
						break
					}
				}
				return got == want
			}
			for v := 0; v < db.Universe().Size(); v++ {
				env[fv[i]] = v
				if !rec(i + 1) {
					return false
				}
			}
			delete(env, fv[i])
			return true
		}
		return rec(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestESOEvalWitness(t *testing.T) {
	// ∃S ∀x (V(x) → S(x)) ∧ (S(x) → V(x)): always true (S := V).
	e := &ESO{
		SOVars: []SOVar{{Name: "s", Arity: 1}},
		FO: Forall{[]string{"X"}, And{[]Formula{
			Implies(A("V", "X"), A("s", "X")),
			Implies(A("s", "X"), A("V", "X")),
		}}},
	}
	rng := rand.New(rand.NewSource(3))
	db := smallDB(rng, 3)
	ok, witness, err := e.EvalWitness(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("trivially satisfiable ESO reported false")
	}
	if !witness.Relation("s").Equal(db.Relation("V")) {
		t.Error("witness S should equal V")
	}

	// ∃S ∀x S(x) ∧ ¬S(x): unsatisfiable.
	e2 := &ESO{
		SOVars: []SOVar{{Name: "s", Arity: 1}},
		FO:     Forall{[]string{"X"}, And{[]Formula{A("s", "X"), Not{A("s", "X")}}}},
	}
	// Nonempty db required for ∀ to bite.
	ok2, _, err := e2.EvalWitness(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Error("unsatisfiable ESO reported true")
	}
}

func TestESOWitnessCapAndCollision(t *testing.T) {
	db := smallDB(rand.New(rand.NewSource(1)), 3)
	big := &ESO{SOVars: []SOVar{{Name: "s", Arity: 4}}, FO: Eq{ast.Const("a"), ast.Const("a")}}
	if _, _, err := big.EvalWitness(db, 10); err == nil {
		t.Error("expected cap error for 81 atoms > 10")
	}
	clash := &ESO{SOVars: []SOVar{{Name: "E", Arity: 2}}, FO: Eq{ast.Const("a"), ast.Const("a")}}
	if _, _, err := clash.EvalWitness(db, 0); err == nil {
		t.Error("expected collision error")
	}
}

func TestFreeVars(t *testing.T) {
	f := And{[]Formula{
		A("E", "X", "Y"),
		Exists{[]string{"Y"}, A("V", "Y")},
		Eq{ast.Var("Z"), ast.Const("a")},
	}}
	fv := FreeVars(f)
	if len(fv) != 3 || fv[0] != "X" || fv[1] != "Y" || fv[2] != "Z" {
		t.Errorf("FreeVars = %v", fv)
	}
	sentence := Forall{[]string{"X"}, Exists{[]string{"Y"}, A("E", "X", "Y")}}
	if len(FreeVars(sentence)) != 0 {
		t.Errorf("sentence has free vars: %v", FreeVars(sentence))
	}
}

func TestFormat(t *testing.T) {
	f := Forall{[]string{"X"}, Or{[]Formula{Not{A("V", "X")}, Exists{[]string{"Y"}, A("E", "X", "Y")}}}}
	got := Format(f)
	want := "∀X.(¬V(X) ∨ ∃Y.E(X,Y))"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}
