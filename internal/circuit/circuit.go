// Package circuit implements Boolean circuits exactly as defined in
// the proof of Theorem 4 of the paper: a circuit is a finite sequence
// of gates (a_i, b_i, c_i) where a_i ∈ {IN, AND, OR, NOT} is the kind
// and b_i, c_i < i are the gate's inputs (b_i = c_i for NOT; unused
// for IN).  Given bits for the input gates, gate values are computed
// in order and the value of the circuit is the value of the last gate.
//
// A circuit with 2n inputs presents a graph on the vertex set {0,1}ⁿ —
// the SUCCINCT representation of [PY86]: the output on (x̄, ȳ) says
// whether the edge (x̄, ȳ) is present.  SuccinctGraph wraps that view
// and can expand the exponentially larger explicit graph, which is the
// data-complexity-vs-expression-complexity gap Theorem 4 measures.
package circuit

import (
	"fmt"
	"math/rand"
)

// Kind is the gate kind of the paper's triples.
type Kind int

// Gate kinds.
const (
	In Kind = iota
	And
	Or
	Not
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case In:
		return "IN"
	case And:
		return "AND"
	case Or:
		return "OR"
	case Not:
		return "NOT"
	}
	return "?"
}

// Gate is one triple (kind, b, c).  For IN gates B and C are ignored;
// for NOT gates only B is used (the paper sets b_i = c_i).
type Gate struct {
	Kind Kind
	B, C int
}

// Circuit is a gate list; gate i may only reference gates < i.
type Circuit struct {
	Gates []Gate
	// inputs caches the indices of IN gates in order.
	inputs []int
}

// New builds a circuit from gates and validates it.
func New(gates []Gate) (*Circuit, error) {
	c := &Circuit{Gates: gates}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the structural conditions of the paper's definition.
func (c *Circuit) Validate() error {
	if len(c.Gates) == 0 {
		return fmt.Errorf("circuit: no gates")
	}
	c.inputs = c.inputs[:0]
	for i, g := range c.Gates {
		switch g.Kind {
		case In:
			c.inputs = append(c.inputs, i)
		case Not:
			if g.B != g.C {
				return fmt.Errorf("circuit: NOT gate %d must have b = c", i)
			}
			if g.B < 0 || g.B >= i {
				return fmt.Errorf("circuit: gate %d input %d out of range", i, g.B)
			}
		case And, Or:
			if g.B < 0 || g.B >= i || g.C < 0 || g.C >= i {
				return fmt.Errorf("circuit: gate %d inputs (%d,%d) out of range", i, g.B, g.C)
			}
		default:
			return fmt.Errorf("circuit: gate %d has unknown kind %d", i, g.Kind)
		}
	}
	return nil
}

// NumInputs returns the number of IN gates.
func (c *Circuit) NumInputs() int {
	if c.inputs == nil {
		c.Validate()
	}
	return len(c.inputs)
}

// Size returns the number of gates.
func (c *Circuit) Size() int { return len(c.Gates) }

// EvalAll computes every gate value for the given input bits (one per
// IN gate, in gate order).
func (c *Circuit) EvalAll(inputs []bool) ([]bool, error) {
	if len(inputs) != c.NumInputs() {
		return nil, fmt.Errorf("circuit: %d input bits for %d IN gates", len(inputs), c.NumInputs())
	}
	vals := make([]bool, len(c.Gates))
	inIdx := 0
	for i, g := range c.Gates {
		switch g.Kind {
		case In:
			vals[i] = inputs[inIdx]
			inIdx++
		case And:
			vals[i] = vals[g.B] && vals[g.C]
		case Or:
			vals[i] = vals[g.B] || vals[g.C]
		case Not:
			vals[i] = !vals[g.B]
		}
	}
	return vals, nil
}

// Eval computes the circuit value (the last gate) on the input bits.
func (c *Circuit) Eval(inputs []bool) (bool, error) {
	vals, err := c.EvalAll(inputs)
	if err != nil {
		return false, err
	}
	return vals[len(vals)-1], nil
}

// MustEval is Eval but panics on arity mismatch.
func (c *Circuit) MustEval(inputs []bool) bool {
	v, err := c.Eval(inputs)
	if err != nil {
		panic(err)
	}
	return v
}

// Builder composes circuits gate by gate; every method returns the
// index of the created gate.
type Builder struct {
	gates []Gate
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return &Builder{} }

// Input appends an IN gate.
func (b *Builder) Input() int {
	b.gates = append(b.gates, Gate{Kind: In})
	return len(b.gates) - 1
}

// And appends an AND gate over gates x and y.
func (b *Builder) And(x, y int) int {
	b.gates = append(b.gates, Gate{Kind: And, B: x, C: y})
	return len(b.gates) - 1
}

// Or appends an OR gate over gates x and y.
func (b *Builder) Or(x, y int) int {
	b.gates = append(b.gates, Gate{Kind: Or, B: x, C: y})
	return len(b.gates) - 1
}

// Not appends a NOT gate over gate x.
func (b *Builder) Not(x int) int {
	b.gates = append(b.gates, Gate{Kind: Not, B: x, C: x})
	return len(b.gates) - 1
}

// Xor appends gates computing x ⊕ y = (x ∨ y) ∧ ¬(x ∧ y).
func (b *Builder) Xor(x, y int) int {
	or := b.Or(x, y)
	nand := b.Not(b.And(x, y))
	return b.And(or, nand)
}

// Iff appends gates computing x ↔ y.
func (b *Builder) Iff(x, y int) int { return b.Not(b.Xor(x, y)) }

// AndN appends a balanced AND over the given gates (at least one).
func (b *Builder) AndN(xs ...int) int { return b.fold(xs, b.And) }

// OrN appends a balanced OR over the given gates (at least one).
func (b *Builder) OrN(xs ...int) int { return b.fold(xs, b.Or) }

func (b *Builder) fold(xs []int, op func(int, int) int) int {
	if len(xs) == 0 {
		panic("circuit: empty gate fold")
	}
	for len(xs) > 1 {
		var next []int
		for i := 0; i+1 < len(xs); i += 2 {
			next = append(next, op(xs[i], xs[i+1]))
		}
		if len(xs)%2 == 1 {
			next = append(next, xs[len(xs)-1])
		}
		xs = next
	}
	return xs[0]
}

// Build finalizes and validates the circuit.  The output is the last
// gate appended, per the paper's convention.
func (b *Builder) Build() (*Circuit, error) { return New(b.gates) }

// MustBuild is Build but panics on validation failure.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// Random builds a random valid circuit with the given number of inputs
// and internal gates, for fuzz-style tests.
func Random(rng *rand.Rand, inputs, internal int) *Circuit {
	b := NewBuilder()
	for i := 0; i < inputs; i++ {
		b.Input()
	}
	n := inputs
	for i := 0; i < internal; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			b.And(x, y)
		case 1:
			b.Or(x, y)
		default:
			b.Not(x)
		}
		n = len(b.gates)
	}
	return b.MustBuild()
}
