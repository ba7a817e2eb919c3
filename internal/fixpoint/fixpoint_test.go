package fixpoint

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
)

const pi1Src = "T(X) :- E(Y,X), !T(Y)."

func pathDB(n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 1; i <= n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 1; i < n; i++ {
		db.AddFact("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

func cycleDB(n int) *relation.Database {
	db := pathDB(n)
	db.AddFact("E", fmt.Sprint(n), "1")
	return db
}

// disjointCyclesDB builds the paper's Gₙ: copies disjoint directed
// cycles of the given length.
func disjointCyclesDB(copies, length int) *relation.Database {
	db := relation.NewDatabase()
	name := func(c, i int) string { return fmt.Sprintf("c%dv%d", c, i) }
	for c := 0; c < copies; c++ {
		for i := 0; i < length; i++ {
			db.AddFact("E", name(c, i), name(c, (i+1)%length))
		}
	}
	return db
}

func TestPi1PathUniqueFixpoint(t *testing.T) {
	// Paper §2: on Lₙ the unique fixpoint of π₁ is {2,4,…}.
	for n := 1; n <= 6; n++ {
		in := engine.MustNew(parser.MustProgram(pi1Src), pathDB(n))
		count, exact, err := Count(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !exact || count != 1 {
			t.Errorf("L%d: count = %d (exact=%v), want 1", n, count, exact)
		}
		ok, st, err := Unique(in)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("L%d: uniqueness not detected", n)
		}
		want := n / 2
		if st["T"].Len() != want {
			t.Errorf("L%d: |T| = %d, want %d", n, st["T"].Len(), want)
		}
	}
}

func TestPi1CycleCensus(t *testing.T) {
	// Paper §2: no fixpoint on odd cycles, exactly two on even ones.
	for n := 3; n <= 8; n++ {
		in := engine.MustNew(parser.MustProgram(pi1Src), cycleDB(n))
		count, exact, err := Count(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if n%2 == 0 {
			want = 2
		}
		if !exact || count != want {
			t.Errorf("C%d: count = %d, want %d", n, count, want)
		}
		has, _, err := Exists(in)
		if err != nil {
			t.Fatal(err)
		}
		if has != (n%2 == 0) {
			t.Errorf("C%d: Exists = %v", n, has)
		}
	}
}

func TestPi1DisjointCyclesExponential(t *testing.T) {
	// Paper §2: on m disjoint even cycles π₁ has exactly 2^m pairwise
	// incomparable fixpoints and hence no least fixpoint.
	for m := 1; m <= 5; m++ {
		in := engine.MustNew(parser.MustProgram(pi1Src), disjointCyclesDB(m, 4))
		count, exact, err := Count(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !exact || count != 1<<m {
			t.Errorf("G_%d: count = %d, want %d", m, count, 1<<m)
		}
		res, err := Least(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exists {
			t.Errorf("G_%d: least fixpoint reported to exist", m)
		}
		if res.NumFixpoints != 1<<m {
			t.Errorf("G_%d: NumFixpoints = %d", m, res.NumFixpoints)
		}
	}
}

func TestToggleNoFixpoint(t *testing.T) {
	db := relation.NewDatabase()
	db.AddConstant("a")
	db.AddConstant("b")
	in := engine.MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	has, _, err := Exists(in)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Error("toggle program has a fixpoint")
	}
}

func TestGuardedToggleUniqueFixpoint(t *testing.T) {
	// The Theorem 1 gadget: T(z) ← ¬Q(u), ¬T(w) with Q forced full by
	// Q(x) ← V(x) on a database where V covers the universe.
	src := `
Q(X) :- V(X).
T(Z) :- !Q(U), !T(W).
`
	db := relation.NewDatabase()
	db.AddFact("V", "a")
	db.AddFact("V", "b")
	in := engine.MustNew(parser.MustProgram(src), db)
	ok, st, err := Unique(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected unique fixpoint")
	}
	if st["Q"].Len() != 2 || st["T"].Len() != 0 {
		t.Errorf("fixpoint Q=%d T=%d, want Q=2 T=0", st["Q"].Len(), st["T"].Len())
	}

	// With V not covering the universe, Q cannot be full: no fixpoint.
	db2 := relation.NewDatabase()
	db2.AddFact("V", "a")
	db2.AddConstant("b")
	in2 := engine.MustNew(parser.MustProgram(src), db2)
	has, _, err := Exists(in2)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Error("partial Q admitted a fixpoint")
	}
}

func TestPositiveProgramLeastIsTC(t *testing.T) {
	// For the TC program the least fixpoint exists and equals the
	// transitive closure even though other fixpoints exist.
	src := `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
`
	db := pathDB(3)
	in := engine.MustNew(parser.MustProgram(src), db)
	res, err := Least(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatal("least fixpoint of a positive program must exist")
	}
	if res.State["S"].Len() != 3 { // (1,2),(2,3),(1,3)
		t.Errorf("|TC| = %d, want 3", res.State["S"].Len())
	}
	if res.NumFixpoints < 1 {
		t.Errorf("NumFixpoints = %d", res.NumFixpoints)
	}
}

func TestEnumerateEarlyStopAndLimit(t *testing.T) {
	in := engine.MustNew(parser.MustProgram(pi1Src), disjointCyclesDB(3, 4))
	seen := 0
	count, complete, err := Enumerate(in, 0, func(engine.State) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if complete || count != 3 {
		t.Errorf("count=%d complete=%v", count, complete)
	}
	count, complete, err = Enumerate(in, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if complete || count != 5 {
		t.Errorf("limited: count=%d complete=%v", count, complete)
	}
}

func TestLeastEnumLimitError(t *testing.T) {
	in := engine.MustNew(parser.MustProgram(pi1Src), disjointCyclesDB(4, 4))
	defer func(n int) { maxFixpoints = n }(maxFixpoints)
	maxFixpoints = 3
	if _, err := Least(in); err == nil {
		t.Error("expected enumeration-cap error")
	}
}

func TestGroundTooLarge(t *testing.T) {
	src := "P(A,B,C,D,E1,F) :- V(A), V(B), V(C), V(D), V(E1), V(F)."
	db := relation.NewDatabase()
	for i := 0; i < 10; i++ {
		db.AddFact("V", fmt.Sprint(i))
	}
	in := engine.MustNew(parser.MustProgram(src), db)
	if _, _, err := Exists(in); err == nil {
		t.Error("expected grounding-size error (10^6 atoms > cap)")
	}
}

// canonical renders a state as a deterministic string for set
// comparison across enumeration orders.
func canonical(s engine.State) string {
	preds := s.Preds()
	var sb []byte
	for _, p := range preds {
		sb = append(sb, p...)
		sb = append(sb, ':')
		for _, t := range s[p].Tuples() {
			sb = append(sb, t.String()...)
		}
		sb = append(sb, ';')
	}
	return string(sb)
}

// randomProgramAndDB builds small random DATALOG¬ programs over a tiny
// universe so the brute-force oracle stays feasible.
func randomProgramAndDB(rng *rand.Rand) (*ast.Program, *relation.Database) {
	// Universe of 2; IDB: T/1, S/1; EDB: E/2, V/1.  Atom space = 4 ≤ 24.
	db := relation.NewDatabase()
	db.AddConstant("a")
	db.AddConstant("b")
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if rng.Intn(2) == 0 {
				db.AddFact("E", string(rune('a'+x)), string(rune('a'+y)))
			}
		}
	}
	if rng.Intn(2) == 0 {
		db.AddFact("V", "a")
	}
	if rng.Intn(2) == 0 {
		db.AddFact("V", "b")
	}

	varNames := []string{"X", "Y"}
	idb := []string{"T", "S"}
	mkAtom := func(pred string) ast.Atom {
		switch pred {
		case "E":
			return ast.NewAtom("E",
				ast.Var(varNames[rng.Intn(2)]), ast.Var(varNames[rng.Intn(2)]))
		default:
			return ast.NewAtom(pred, ast.Var(varNames[rng.Intn(2)]))
		}
	}
	prog := &ast.Program{}
	nRules := 1 + rng.Intn(3)
	for i := 0; i < nRules; i++ {
		head := ast.NewAtom(idb[rng.Intn(2)], ast.Var(varNames[rng.Intn(2)]))
		var body []ast.Literal
		nLits := rng.Intn(3)
		for j := 0; j < nLits; j++ {
			preds := []string{"T", "S", "E", "V"}
			a := mkAtom(preds[rng.Intn(len(preds))])
			if rng.Intn(2) == 0 {
				body = append(body, ast.Pos(a))
			} else {
				body = append(body, ast.Neg(a))
			}
		}
		if rng.Intn(4) == 0 {
			body = append(body, ast.Neq(ast.Var("X"), ast.Var("Y")))
		}
		prog.Rules = append(prog.Rules, ast.NewRule(head, body...))
	}
	return prog, db
}

func TestPropSATMatchesBruteForce(t *testing.T) {
	// The central cross-validation: the SAT-based fixpoint enumeration
	// must agree exactly (as a set of states) with subset enumeration.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog, db := randomProgramAndDB(rng)
		in, err := engine.New(prog, db)
		if err != nil {
			return true // e.g. unlucky arity clash; not the property
		}

		var bruteSet []string
		_, err = EnumerateBrute(in, func(s engine.State) bool {
			bruteSet = append(bruteSet, canonical(s))
			return true
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var satSet []string
		_, complete, err := Enumerate(in, 0, func(s engine.State) bool {
			if !in.IsFixpoint(s) {
				t.Logf("seed %d: SAT produced a non-fixpoint\nprogram:\n%s", seed, prog)
				return false
			}
			satSet = append(satSet, canonical(s))
			return true
		})
		if err != nil || !complete {
			t.Logf("seed %d: enumeration failed: %v", seed, err)
			return false
		}
		sort.Strings(bruteSet)
		sort.Strings(satSet)
		if len(bruteSet) != len(satSet) {
			t.Logf("seed %d: brute %d vs sat %d fixpoints\nprogram:\n%s\ndb:\n%s",
				seed, len(bruteSet), len(satSet), prog, db)
			return false
		}
		for i := range bruteSet {
			if bruteSet[i] != satSet[i] {
				t.Logf("seed %d: fixpoint sets differ\nprogram:\n%s", seed, prog)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	src := "S(X,Y) :- E(X,Y)."
	db := pathDB(6) // 36 atoms > 24
	in := engine.MustNew(parser.MustProgram(src), db)
	if _, err := EnumerateBrute(in, nil); err == nil {
		t.Error("expected feasibility error")
	}
}
