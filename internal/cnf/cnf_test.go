package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	x := b.NewVar()
	y := b.NewVar()
	b.Add(x, -y)
	f := b.Formula()
	if f.NumVars != 2 || len(f.Clauses) != 1 {
		t.Fatalf("formula = %+v", f)
	}
}

func TestAddValidation(t *testing.T) {
	b := NewBuilder()
	b.NewVar()
	for _, lits := range [][]int{{0}, {2}, {-5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", lits)
				}
			}()
			b.Add(lits...)
		}()
	}
}

// evalGate exhaustively checks a gate encoding: for every assignment
// to the inputs, the output variable's forced value must match want.
func evalGate(t *testing.T, f *Formula, inputs []int, out int, want func(vals []bool) bool) {
	t.Helper()
	n := len(inputs)
	for mask := 0; mask < 1<<n; mask++ {
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = mask&(1<<i) != 0
		}
		// Try both polarities of out with the inputs fixed; exactly the
		// one equal to want(vals) must satisfy the formula.
		for _, ov := range []bool{false, true} {
			assign := make([]bool, f.NumVars+1)
			for i, v := range inputs {
				assign[v] = vals[i]
			}
			assign[out] = ov
			if f.Eval(assign) != (ov == want(vals)) {
				t.Fatalf("gate wrong at inputs %v out=%v", vals, ov)
			}
		}
	}
}

func TestAndGate(t *testing.T) {
	b := NewBuilder()
	x, y := b.NewVar(), b.NewVar()
	out := b.AndN(x, y)
	evalGate(t, b.Formula(), []int{x, y}, out, func(v []bool) bool { return v[0] && v[1] })
}

func TestOrGate(t *testing.T) {
	b := NewBuilder()
	x, y := b.NewVar(), b.NewVar()
	out := b.OrN(x, y)
	evalGate(t, b.Formula(), []int{x, y}, out, func(v []bool) bool { return v[0] || v[1] })
}

func TestAndNOrN(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.NewVar(), b.NewVar(), b.NewVar()
	a := b.AndN(x, y, z)
	evalGate(t, b.Formula(), []int{x, y, z}, a, func(v []bool) bool { return v[0] && v[1] && v[2] })

	b2 := NewBuilder()
	p, q, r := b2.NewVar(), b2.NewVar(), b2.NewVar()
	o := b2.OrN(p, -q, r)
	evalGate(t, b2.Formula(), []int{p, q, r}, o, func(v []bool) bool { return v[0] || !v[1] || v[2] })
}

func TestEmptyGates(t *testing.T) {
	b := NewBuilder()
	a := b.AndN()
	o := b.OrN()
	f := b.Formula()
	assign := make([]bool, f.NumVars+1)
	assign[a], assign[o] = true, false
	if !f.Eval(assign) {
		t.Error("empty AndN/OrN should force true/false")
	}
	assign[a] = false
	if f.Eval(assign) {
		t.Error("empty AndN should not allow false")
	}
}

func TestIffOr(t *testing.T) {
	b := NewBuilder()
	a, x, y := b.NewVar(), b.NewVar(), b.NewVar()
	b.IffOr(a, x, -y)
	f := b.Formula()
	for mask := 0; mask < 8; mask++ {
		assign := []bool{false, mask&1 != 0, mask&2 != 0, mask&4 != 0}
		want := assign[1] == (assign[2] || !assign[3])
		if f.Eval(assign) != want {
			t.Errorf("IffOr wrong at %v", assign[1:])
		}
	}

	// Empty disjunction forces ¬a.
	b2 := NewBuilder()
	a2 := b2.NewVar()
	b2.IffOr(a2)
	if !b2.Formula().Eval([]bool{false, false}) || b2.Formula().Eval([]bool{false, true}) {
		t.Error("empty IffOr should force a false")
	}
}

func TestWriteDIMACS(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.NewVar(), b.NewVar(), b.NewVar()
	b.Add(x, -y)
	b.Add(-x, y, z)
	b.Unit(-z)
	want := "p cnf 3 3\n1 -2 0\n-1 2 3 0\n-3 0\n"
	if got := b.Formula().String(); got != want {
		t.Errorf("DIMACS = %q, want %q", got, want)
	}
}

func TestPropTseitinPreservesModels(t *testing.T) {
	// Building a random gate tree and asserting its output true must
	// have the same projected models as the formula evaluated directly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		const nIn = 4
		in := make([]int, nIn)
		for i := range in {
			in[i] = b.NewVar()
		}
		// Random tree of gates over the inputs.
		nodes := append([]int{}, in...)
		for i := 0; i < 4; i++ {
			x := nodes[rng.Intn(len(nodes))]
			y := nodes[rng.Intn(len(nodes))]
			var g int
			if rng.Intn(2) == 0 {
				g = b.AndN(x, y)
			} else {
				g = b.OrN(x, y)
			}
			nodes = append(nodes, g)
		}
		root := nodes[len(nodes)-1]
		b.Unit(root)
		formula := b.Formula()

		// Count projected models by brute force over ALL vars, then
		// project; compare against direct evaluation of the gate tree.
		n := formula.NumVars
		projected := make(map[int]bool)
		assign := make([]bool, n+1)
		var full func(v int)
		satisfying := 0
		full = func(v int) {
			if v > n {
				if formula.Eval(assign) {
					mask := 0
					for i, iv := range in {
						if assign[iv] {
							mask |= 1 << i
						}
					}
					projected[mask] = true
					satisfying++
				}
				return
			}
			assign[v] = false
			full(v + 1)
			assign[v] = true
			full(v + 1)
		}
		full(1)
		// Tseitin encodings are functional: every projected model has
		// exactly one extension, so totals match.
		return satisfying == len(projected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
