package circuit

import "fmt"

// SuccinctGraph is a graph on the vertex set {0,1}ⁿ presented by a
// Boolean circuit with 2n inputs ([PY86], used by the paper's
// Theorem 4): the edge (x̄, ȳ) is present iff the circuit outputs 1 on
// the concatenated bits x̄ȳ.  Bit j of a vertex (least significant
// first) feeds input gate j for x̄ and input gate n+j for ȳ.
type SuccinctGraph struct {
	C *Circuit
	N int // address bits per vertex
}

// NewSuccinctGraph wraps a circuit as a succinct graph; the circuit
// must have an even number of inputs.
func NewSuccinctGraph(c *Circuit) (*SuccinctGraph, error) {
	in := c.NumInputs()
	if in == 0 || in%2 != 0 {
		return nil, fmt.Errorf("circuit: succinct graph needs an even, positive input count; have %d", in)
	}
	return &SuccinctGraph{C: c, N: in / 2}, nil
}

// NumVertices returns 2ⁿ.
func (g *SuccinctGraph) NumVertices() int { return 1 << g.N }

// bitsOf writes the n address bits of v (LSB first) into dst.
func (g *SuccinctGraph) bitsOf(v int, dst []bool) {
	for j := 0; j < g.N; j++ {
		dst[j] = v&(1<<j) != 0
	}
}

// ExplicitEdges expands the full edge list by evaluating the circuit
// on all 2²ⁿ vertex pairs — the exponential blowup that makes the
// succinct fixpoint problem NEXP-complete.
func (g *SuccinctGraph) ExplicitEdges() [][2]int {
	var out [][2]int
	nv := g.NumVertices()
	in := make([]bool, 2*g.N)
	for x := 0; x < nv; x++ {
		g.bitsOf(x, in[:g.N])
		for y := 0; y < nv; y++ {
			g.bitsOf(y, in[g.N:])
			if g.C.MustEval(in) {
				out = append(out, [2]int{x, y})
			}
		}
	}
	return out
}

// CompleteGraph returns the succinct representation of the complete
// graph on 2ⁿ vertices: edge (x̄, ȳ) iff x̄ ≠ ȳ.  For n ≥ 2 the
// presented graph is not 3-colorable — the canonical "no" instance of
// SUCCINCT 3-COLORING.
func CompleteGraph(n int) *SuccinctGraph {
	b := NewBuilder()
	xs := make([]int, n)
	ys := make([]int, n)
	for j := 0; j < n; j++ {
		xs[j] = b.Input()
	}
	for j := 0; j < n; j++ {
		ys[j] = b.Input()
	}
	diffs := make([]int, n)
	for j := 0; j < n; j++ {
		diffs[j] = b.Xor(xs[j], ys[j])
	}
	b.OrN(diffs...)
	g, err := NewSuccinctGraph(b.MustBuild())
	if err != nil {
		panic(err)
	}
	return g
}

// CycleGraph returns the succinct representation of the directed cycle
// on 2ⁿ vertices: edge (x̄, ȳ) iff ȳ = x̄ + 1 (mod 2ⁿ).  The underlying
// undirected graph is an even cycle, hence 2-colorable and a fortiori
// 3-colorable — the canonical "yes" instance.
func CycleGraph(n int) *SuccinctGraph {
	b := NewBuilder()
	xs := make([]int, n)
	ys := make([]int, n)
	for j := 0; j < n; j++ {
		xs[j] = b.Input()
	}
	for j := 0; j < n; j++ {
		ys[j] = b.Input()
	}
	// Successor via a ripple carry: s_j = x_j ⊕ carry_j with
	// carry_0 = 1, carry_{j+1} = x_j ∧ carry_j; match y_j ↔ s_j.
	one := b.Not(b.And(xs[0], b.Not(xs[0]))) // constant true gate
	carry := one
	matches := make([]int, n)
	for j := 0; j < n; j++ {
		s := b.Xor(xs[j], carry)
		matches[j] = b.Iff(ys[j], s)
		carry = b.And(xs[j], carry)
	}
	root := b.AndN(matches...)
	if root != len(b.gates)-1 {
		// The output must be the last gate (the paper's convention);
		// a double negation relocates it.
		b.Not(b.Not(root))
	}
	g, err := NewSuccinctGraph(b.MustBuild())
	if err != nil {
		panic(err)
	}
	return g
}

// EmptyGraph returns the succinct representation of the graph with no
// edges on 2ⁿ vertices (trivially 3-colorable).
func EmptyGraph(n int) *SuccinctGraph {
	b := NewBuilder()
	for j := 0; j < 2*n; j++ {
		b.Input()
	}
	x := 0             // first input
	b.And(x, b.Not(x)) // constant false
	g, err := NewSuccinctGraph(b.MustBuild())
	if err != nil {
		panic(err)
	}
	return g
}
