package sat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

func TestTrivial(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(a, b)
	s.AddClause(-a)
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Errorf("model a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if s.Solve() != Sat {
		t.Fatal("empty formula should be SAT")
	}
}

func TestContradictionUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(a)
	if s.AddClause(-a) {
		t.Error("adding contradictory unit should report false")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestUnitChain(t *testing.T) {
	// x1, x1→x2, …, x_{n-1}→x_n forces all true.
	s := NewSolver()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(vars[0])
	for i := 1; i < n; i++ {
		s.AddClause(-vars[i-1], vars[i])
	}
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("var %d false", i)
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(a, -a)       // tautology: ignored
	s.AddClause(b, b, b, -a) // duplicates collapse
	s.AddClause(-b)
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	if s.Value(a) {
		t.Error("a should be false (forced by clause (b∨¬a) with ¬b)")
	}
}

// pigeonhole builds PHP(m pigeons, n holes): unsatisfiable when m > n.
func pigeonhole(m, n int) *cnf.Formula {
	b := cnf.NewBuilder()
	// p[i][j]: pigeon i in hole j.
	p := make([][]int, m)
	for i := range p {
		p[i] = make([]int, n)
		for j := range p[i] {
			p[i][j] = b.NewVar()
		}
	}
	for i := 0; i < m; i++ {
		b.Add(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 < m; i1++ {
			for i2 := i1 + 1; i2 < m; i2++ {
				b.Add(-p[i1][j], -p[i2][j])
			}
		}
	}
	return b.Formula()
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 6; n++ {
		st, _ := SolveFormula(pigeonhole(n+1, n))
		if st != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
		st, m := SolveFormula(pigeonhole(n, n))
		if st != Sat {
			t.Errorf("PHP(%d,%d) = %v, want SAT", n, n, st)
		}
		if m == nil {
			t.Error("SAT without model")
		}
	}
}

// bruteForce reports satisfiability and model count by exhaustive
// enumeration (n ≤ ~20).
func bruteForce(f *cnf.Formula) (sat bool, count int) {
	n := f.NumVars
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			count++
			sat = true
		}
	}
	return sat, count
}

// randomCNF builds a random k-SAT formula.
func randomCNF(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	b := cnf.NewBuilder()
	for i := 0; i < nVars; i++ {
		b.NewVar()
	}
	for i := 0; i < nClauses; i++ {
		c := make([]int, 0, k)
		for j := 0; j < k; j++ {
			v := rng.Intn(nVars) + 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			c = append(c, v)
		}
		b.Add(c...)
	}
	return b.Formula()
}

func TestPropAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8) // 3..10 vars
		m := 1 + rng.Intn(4*n)
		formula := randomCNF(rng, n, m, 3)
		want, _ := bruteForce(formula)
		st, model := SolveFormula(formula)
		if (st == Sat) != want {
			t.Logf("seed %d: solver=%v brute=%v\n%s", seed, st, want, formula)
			return false
		}
		if st == Sat && !formula.Eval(model) {
			t.Logf("seed %d: reported model does not satisfy formula", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropModelCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // 3..7 vars
		m := 1 + rng.Intn(3*n)
		formula := randomCNF(rng, n, m, 3)
		_, want := bruteForce(formula)
		s := FromFormula(formula)
		vars := make([]int, n)
		for i := range vars {
			vars[i] = i + 1
		}
		got, exact := s.CountProjected(vars, 0)
		if !exact || got != want {
			t.Logf("seed %d: count=%d exact=%v want=%d\n%s", seed, got, exact, want, formula)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateProjectedCollapsesAuxVars(t *testing.T) {
	// y is free, x forced true: projecting onto {x} must give one
	// model even though {x,y} has two.
	s := NewSolver()
	x := s.NewVar()
	y := s.NewVar()
	_ = y
	s.AddClause(x)
	count, exact := s.CountProjected([]int{x}, 0)
	if !exact || count != 1 {
		t.Errorf("count=%d exact=%v, want 1 exact", count, exact)
	}
}

func TestEnumerateLimit(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	count, exact := s.CountProjected([]int{a, b}, 2)
	if exact || count != 2 {
		t.Errorf("count=%d exact=%v, want 2 inexact", count, exact)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	n := 0
	count, complete := s.EnumerateProjected([]int{a, b}, 0, func(m map[int]bool) bool {
		n++
		return n < 2
	})
	if complete || count != 2 {
		t.Errorf("count=%d complete=%v", count, complete)
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(a, b)
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	s.AddClause(-a)
	if s.Solve() != Sat {
		t.Fatal("expected SAT after refinement")
	}
	if s.Value(a) || !s.Value(b) {
		t.Error("wrong model after refinement")
	}
	s.AddClause(-b)
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT after blocking both")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(1, int64(i)); got != w {
			t.Errorf("luby(1,%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := pigeonhole(5, 4)
	s := FromFormula(f)
	s.Solve()
	if s.Conflicts == 0 || s.Decisions == 0 || s.Propagations == 0 {
		t.Errorf("stats empty: %d conflicts, %d decisions, %d props",
			s.Conflicts, s.Decisions, s.Propagations)
	}
}

func TestHardRandom3SAT(t *testing.T) {
	// At ratio 4.26 near the phase transition; just verify the solver
	// terminates and agrees with brute force for a modest size.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 14
		f := randomCNF(rng, n, int(4.26*float64(n)), 3)
		want, _ := bruteForce(f)
		st, _ := SolveFormula(f)
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, st, want)
		}
	}
}

func TestValuePanicsWithoutModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Value without model did not panic")
		}
	}()
	s := NewSolver()
	v := s.NewVar()
	s.Value(v)
}

func TestAddClauseUnknownVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddClause with unknown variable did not panic")
		}
	}()
	NewSolver().AddClause(3)
}

func BenchmarkSolverPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, _ := SolveFormula(pigeonhole(7, 6))
		if st != Unsat {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	fs := make([]*cnf.Formula, 8)
	for i := range fs {
		fs[i] = randomCNF(rng, 60, 255, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveFormula(fs[i%len(fs)])
	}
}

func ExampleSolver() {
	s := NewSolver()
	x := s.NewVar()
	y := s.NewVar()
	s.AddClause(x, y)  // x ∨ y
	s.AddClause(-x, y) // ¬x ∨ y
	s.AddClause(x, -y) // x ∨ ¬y
	fmt.Println(s.Solve(), s.Value(x), s.Value(y))
	// Output: SAT true true
}
