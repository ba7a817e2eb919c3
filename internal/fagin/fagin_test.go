package fagin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/logic"
	"repro/internal/reductions"
	"repro/internal/relation"
)

// smallDB builds a random database over vocabulary E/2, V/1.
func smallDB(rng *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	names := []string{"a", "b", "c"}
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

// sentences used across the tests: a mix of alternation patterns.
func testSentences() []*logic.ESO {
	imp := logic.Implies
	return []*logic.ESO{
		// ∃s ∀x (s(x) ↔ V(x)): always true.
		{
			SOVars: []logic.SOVar{{Name: "s", Arity: 1}},
			FO: logic.Forall{Vars: []string{"X"}, F: logic.And{Fs: []logic.Formula{
				imp(logic.A("s", "X"), logic.A("V", "X")),
				imp(logic.A("V", "X"), logic.A("s", "X")),
			}}},
		},
		// ∀x ∃y E(x,y): every vertex has an out-edge (pure FO).
		{
			FO: logic.Forall{Vars: []string{"X"},
				F: logic.Exists{Vars: []string{"Y"}, F: logic.A("E", "X", "Y")}},
		},
		// ∃x ∀y E(x,y) — leading existential (∃∀ alternation).
		{
			FO: logic.Exists{Vars: []string{"X"},
				F: logic.Forall{Vars: []string{"Y"}, F: logic.A("E", "X", "Y")}},
		},
		// ∃s [∃x s(x)] ∧ [∀x (s(x) → V(x))]: nonempty sub-V set;
		// true iff V nonempty.
		{
			SOVars: []logic.SOVar{{Name: "s", Arity: 1}},
			FO: logic.And{Fs: []logic.Formula{
				logic.Exists{Vars: []string{"X"}, F: logic.A("s", "X")},
				logic.Forall{Vars: []string{"X"}, F: imp(logic.A("s", "X"), logic.A("V", "X"))},
			}},
		},
		// ∀x∀y (E(x,y) → E(y,x)): symmetry (no existentials at all).
		{
			FO: logic.Forall{Vars: []string{"X", "Y"},
				F: imp(logic.A("E", "X", "Y"), logic.A("E", "Y", "X"))},
		},
		// ∃s ∀x∃y [s(x) → E(x,y)] ∧ [¬s(x) → V(x)].
		{
			SOVars: []logic.SOVar{{Name: "s", Arity: 1}},
			FO: logic.Forall{Vars: []string{"X"}, F: logic.Exists{Vars: []string{"Y"},
				F: logic.And{Fs: []logic.Formula{
					imp(logic.A("s", "X"), logic.A("E", "X", "Y")),
					imp(logic.Not{F: logic.A("s", "X")}, logic.A("V", "X")),
				}}}},
		},
	}
}

// esoOf converts an SNF back into a logic.ESO sentence, so the
// transformation can be cross-checked by model checking.
func esoOf(s *SNF) *logic.ESO {
	var disj []logic.Formula
	for _, conj := range s.Disjuncts {
		var lits []logic.Formula
		for _, l := range conj {
			var f logic.Formula
			if l.IsEq {
				f = logic.Eq{Left: l.Left, Right: l.Right}
			} else {
				f = logic.Atom{Pred: l.Pred, Args: l.Args}
			}
			if l.Neg {
				f = logic.Not{F: f}
			}
			lits = append(lits, f)
		}
		if len(lits) == 0 {
			lits = []logic.Formula{logic.Eq{Left: ast.Var("QTRUE"), Right: ast.Var("QTRUE")}}
		}
		disj = append(disj, logic.And{Fs: lits})
	}
	var matrix logic.Formula = logic.Or{Fs: disj}
	if len(disj) == 0 {
		// Empty disjunction: false.
		matrix = logic.Not{F: logic.Eq{Left: ast.Var("QTRUE"), Right: ast.Var("QTRUE")}}
	}
	var f logic.Formula = matrix
	if len(s.Exist) > 0 {
		f = logic.Exists{Vars: s.Exist, F: f}
	}
	if len(s.Univ) > 0 {
		f = logic.Forall{Vars: s.Univ, F: f}
	}
	return &logic.ESO{SOVars: s.SOVars, FO: f}
}

func TestSkolemizePreservesTruth(t *testing.T) {
	// D ⊨ Ψ ⟺ D ⊨ SNF(Ψ), checked by brute-force witness search.
	for si, e := range testSentences() {
		snf, err := Skolemize(e)
		if err != nil {
			t.Fatalf("sentence %d: %v", si, err)
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := smallDB(rng, 2)
			want, _, err := e.EvalWitness(db, 64)
			if err != nil {
				t.Fatalf("sentence %d seed %d: %v", si, seed, err)
			}
			got, _, err := esoOf(snf).EvalWitness(db, 64)
			if err != nil {
				t.Fatalf("sentence %d seed %d (snf): %v", si, seed, err)
			}
			if got != want {
				t.Errorf("sentence %d seed %d: original=%v snf=%v\nsnf: %+v",
					si, seed, want, got, snf)
			}
		}
	}
}

func TestTheorem1FixpointEquivalence(t *testing.T) {
	// D ⊨ Ψ ⟺ (π_Ψ, D) has a fixpoint — the general Theorem 1
	// statement, on every test sentence and random databases.
	for si, e := range testSentences() {
		prog, _, err := Theorem1Program(e)
		if err != nil {
			t.Fatalf("sentence %d: %v", si, err)
		}
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed + 100))
			db := smallDB(rng, 2)
			want, _, err := e.EvalWitness(db, 64)
			if err != nil {
				t.Fatalf("sentence %d: %v", si, err)
			}
			in, err := engine.New(prog, db.Clone())
			if err != nil {
				t.Fatalf("sentence %d: %v", si, err)
			}
			has, _, err := fixpoint.Exists(in)
			if err != nil {
				t.Fatalf("sentence %d seed %d: %v", si, seed, err)
			}
			if has != want {
				t.Errorf("sentence %d seed %d: ESO=%v fixpoint=%v\nprogram:\n%s",
					si, seed, want, has, prog)
			}
		}
	}
}

func TestPropTheorem1OnRandomDatabases(t *testing.T) {
	// Heavier randomized run of the equivalence on the ∀∃ sentence.
	e := testSentences()[5]
	prog, _, err := Theorem1Program(e)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := smallDB(rng, 2+rng.Intn(2))
		want, _, err := e.EvalWitness(db, 64)
		if err != nil {
			return true // domain too big for the oracle; skip
		}
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return false
		}
		has, _, err := fixpoint.Exists(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if has != want {
			t.Logf("seed %d: ESO=%v fixpoint=%v", seed, want, has)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// satESO builds the Example 1 sentence for SATISFIABILITY over the
// vocabulary (V, P, N):
// ∃S (∀x)(∃y) [S(x)→V(x)] ∧ [¬V(x) → (P(x,y)∧S(y)) ∨ (N(x,y)∧¬S(y))].
func satESO() *logic.ESO {
	imp := logic.Implies
	return &logic.ESO{
		SOVars: []logic.SOVar{{Name: "s", Arity: 1}},
		FO: logic.Forall{Vars: []string{"X"}, F: logic.Exists{Vars: []string{"Y"},
			F: logic.And{Fs: []logic.Formula{
				imp(logic.A("s", "X"), logic.A("V", "X")),
				imp(logic.Not{F: logic.A("V", "X")}, logic.Or{Fs: []logic.Formula{
					logic.And{Fs: []logic.Formula{logic.A("P", "X", "Y"), logic.A("s", "Y")}},
					logic.And{Fs: []logic.Formula{logic.A("N", "X", "Y"), logic.Not{F: logic.A("s", "Y")}}},
				}}),
			}}}},
	}
}

func TestExample1GeneratedVsHandwritten(t *testing.T) {
	// The generated π_C from the Example 1 sentence must agree with the
	// hand-written π_SAT of the reductions package on fixpoint
	// existence ⟺ satisfiability.
	gen, _, err := Theorem1Program(satESO())
	if err != nil {
		t.Fatal(err)
	}
	instances := []*reductions.SATInstance{
		{NumVars: 2, Clauses: [][]int{{1, 2}}},
		{NumVars: 1, Clauses: [][]int{{1}, {-1}}},
		{NumVars: 2, Clauses: [][]int{{1}, {-1, 2}, {-2}}}, // x, x→y, ¬y: unsat
		{NumVars: 2, Clauses: [][]int{{1}, {-1, 2}}},       // sat
	}
	for ii, inst := range instances {
		db, err := reductions.SATDatabase(inst)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.CountModels() > 0

		genIn, err := engine.New(gen, db.Clone())
		if err != nil {
			t.Fatal(err)
		}
		genHas, _, err := fixpoint.Exists(genIn)
		if err != nil {
			t.Fatalf("instance %d: %v", ii, err)
		}
		handIn := engine.MustNew(reductions.PiSAT(), db.Clone())
		handHas, _, err := fixpoint.Exists(handIn)
		if err != nil {
			t.Fatalf("instance %d: %v", ii, err)
		}
		if genHas != want || handHas != want {
			t.Errorf("instance %d: satisfiable=%v generated=%v handwritten=%v",
				ii, want, genHas, handHas)
		}
	}
}

func TestSkolemizeRejectsFreeVars(t *testing.T) {
	e := &logic.ESO{FO: logic.A("V", "X")}
	if _, err := Skolemize(e); err == nil {
		t.Error("free variables accepted")
	}
}

func TestProgramNameCollision(t *testing.T) {
	e := &logic.ESO{
		SOVars: []logic.SOVar{{Name: "q", Arity: 1}},
		FO:     logic.Forall{Vars: []string{"X"}, F: logic.A("q", "X")},
	}
	snf, err := Skolemize(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snf.Program(ProgramNames{}); err == nil {
		t.Error("collision with q not detected")
	}
	if _, err := snf.Program(ProgramNames{Q: "collector", T: "toggle"}); err != nil {
		t.Errorf("renamed program failed: %v", err)
	}
}

func TestGeneratedProgramShape(t *testing.T) {
	prog, snf, err := Theorem1Program(testSentences()[0])
	if err != nil {
		t.Fatal(err)
	}
	// Identity rules for every SO var, one rule per disjunct, one toggle.
	want := len(snf.SOVars) + len(snf.Disjuncts) + 1
	if len(prog.Rules) != want {
		t.Errorf("rules = %d, want %d\n%s", len(prog.Rules), want, prog)
	}
	last := prog.Rules[len(prog.Rules)-1]
	if last.Head.Pred != "tg" || len(last.Body) != 2 {
		t.Errorf("toggle rule = %s", last)
	}
}
