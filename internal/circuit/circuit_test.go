package circuit

import (
	"math/rand"
	"testing"
)

func TestBuilderEval(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Or(b.And(x, y), b.Not(x)) // (x∧y) ∨ ¬x  ≡  x→y
	c := b.MustBuild()
	cases := []struct {
		x, y, want bool
	}{
		{false, false, true},
		{false, true, true},
		{true, false, false},
		{true, true, true},
	}
	for _, cse := range cases {
		if got := c.MustEval([]bool{cse.x, cse.y}); got != cse.want {
			t.Errorf("eval(%v,%v) = %v, want %v", cse.x, cse.y, got, cse.want)
		}
	}
}

func TestXorIff(t *testing.T) {
	b := NewBuilder()
	x, y := b.Input(), b.Input()
	b.Xor(x, y)
	c := b.MustBuild()
	for mask := 0; mask < 4; mask++ {
		in := []bool{mask&1 != 0, mask&2 != 0}
		if c.MustEval(in) != (in[0] != in[1]) {
			t.Errorf("xor wrong at %v", in)
		}
	}

	b2 := NewBuilder()
	x2, y2 := b2.Input(), b2.Input()
	b2.Iff(x2, y2)
	c2 := b2.MustBuild()
	for mask := 0; mask < 4; mask++ {
		in := []bool{mask&1 != 0, mask&2 != 0}
		if c2.MustEval(in) != (in[0] == in[1]) {
			t.Errorf("iff wrong at %v", in)
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name  string
		gates []Gate
	}{
		{"empty", nil},
		{"forward ref", []Gate{{Kind: In}, {Kind: And, B: 0, C: 2}}},
		{"self ref", []Gate{{Kind: In}, {Kind: And, B: 1, C: 0}}},
		{"not b!=c", []Gate{{Kind: In}, {Kind: Not, B: 0, C: 1}}},
		{"bad kind", []Gate{{Kind: Kind(9)}}},
		{"negative input", []Gate{{Kind: In}, {Kind: Or, B: -1, C: 0}}},
	}
	for _, c := range cases {
		if _, err := New(c.gates); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestEvalArityMismatch(t *testing.T) {
	b := NewBuilder()
	b.Input()
	b.Input()
	c := b.MustBuild()
	if _, err := c.Eval([]bool{true}); err == nil {
		t.Error("no error for wrong input arity")
	}
}

func TestPaperTripleForm(t *testing.T) {
	// Build directly from triples as the paper defines: gates numbered
	// from 0, NOT with b=c.
	c, err := New([]Gate{
		{Kind: In},              // g0 = x
		{Kind: In},              // g1 = y
		{Kind: Not, B: 1, C: 1}, // g2 = ¬y
		{Kind: And, B: 0, C: 2}, // g3 = x ∧ ¬y
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.MustEval([]bool{true, false}) || c.MustEval([]bool{true, true}) {
		t.Error("triple-form circuit wrong")
	}
}

// edgeSet is g's explicit edge list as a set.
func edgeSet(g *SuccinctGraph) map[[2]int]bool {
	has := map[[2]int]bool{}
	for _, e := range g.ExplicitEdges() {
		has[e] = true
	}
	return has
}

func TestCompleteGraph(t *testing.T) {
	for n := 1; n <= 3; n++ {
		g := CompleteGraph(n)
		nv := g.NumVertices()
		has := edgeSet(g)
		for x := 0; x < nv; x++ {
			for y := 0; y < nv; y++ {
				if got := has[[2]int{x, y}]; got != (x != y) {
					t.Errorf("n=%d: edge(%d,%d) = %v", n, x, y, got)
				}
			}
		}
		if edges := g.ExplicitEdges(); len(edges) != nv*(nv-1) {
			t.Errorf("n=%d: edge count %d, want %d", n, len(edges), nv*(nv-1))
		}
	}
}

func TestCycleGraph(t *testing.T) {
	for n := 1; n <= 4; n++ {
		g := CycleGraph(n)
		nv := g.NumVertices()
		has := edgeSet(g)
		for x := 0; x < nv; x++ {
			for y := 0; y < nv; y++ {
				want := y == (x+1)%nv
				if got := has[[2]int{x, y}]; got != want {
					t.Errorf("n=%d: edge(%d,%d) = %v, want %v", n, x, y, got, want)
				}
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := EmptyGraph(2)
	if edges := g.ExplicitEdges(); len(edges) != 0 {
		t.Errorf("empty graph has %d edges", len(edges))
	}
}

func TestSuccinctGraphOddInputs(t *testing.T) {
	b := NewBuilder()
	b.Input()
	b.Not(0)
	if _, err := NewSuccinctGraph(b.MustBuild()); err == nil {
		t.Error("odd input count accepted")
	}
}

func TestOutputIsLastGate(t *testing.T) {
	// The circuit value must be the last gate even for 1-bit cycles
	// (regression: fold of a single element).
	has := edgeSet(CycleGraph(1))
	if !has[[2]int{0, 1}] || !has[[2]int{1, 0}] || has[[2]int{0, 0}] {
		t.Error("1-bit cycle wrong")
	}
}

func TestRandomCircuitsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		c := Random(rng, 2+rng.Intn(4), 1+rng.Intn(10))
		if err := c.Validate(); err != nil {
			t.Fatalf("random circuit invalid: %v", err)
		}
	}
}
