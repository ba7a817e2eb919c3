// Package cnf provides a CNF formula builder with Tseitin-style gate
// encodings and DIMACS serialization.
//
// It is the bridge between the structured objects of the reproduction
// (ground DATALOG¬ completions, Boolean circuits) and the sat solver:
// callers allocate variables, assert clauses or gate definitions, and
// hand the finished formula to sat.Solver.  Literals follow the DIMACS
// convention (+v / −v, variables from 1).
package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Formula is a CNF formula: a variable count and a list of clauses.
type Formula struct {
	NumVars int
	Clauses [][]int
}

// Builder incrementally constructs a Formula.
type Builder struct {
	f Formula
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// NewVar allocates a fresh variable.
func (b *Builder) NewVar() int {
	b.f.NumVars++
	return b.f.NumVars
}

// Add asserts a clause (a disjunction of DIMACS literals).
func (b *Builder) Add(lits ...int) {
	for _, l := range lits {
		if l == 0 {
			panic("cnf: literal 0 in clause")
		}
		v := l
		if v < 0 {
			v = -v
		}
		if v > b.f.NumVars {
			panic(fmt.Sprintf("cnf: literal %d references unallocated variable", l))
		}
	}
	c := make([]int, len(lits))
	copy(c, lits)
	b.f.Clauses = append(b.f.Clauses, c)
}

// Unit asserts a single literal.
func (b *Builder) Unit(l int) { b.Add(l) }

// Formula returns the built formula.  The builder may continue to be
// used; the returned value shares clause storage with it.
func (b *Builder) Formula() *Formula { return &b.f }

// --- Tseitin gate encodings -------------------------------------------

// AndN defines out ↔ (l₁ ∧ … ∧ lₙ) and returns out.  With no inputs
// out is asserted true (the empty conjunction).
func (b *Builder) AndN(lits ...int) int {
	out := b.NewVar()
	if len(lits) == 0 {
		b.Unit(out)
		return out
	}
	long := make([]int, 0, len(lits)+1)
	long = append(long, out)
	for _, l := range lits {
		b.Add(-out, l)
		long = append(long, -l)
	}
	b.Add(long...)
	return out
}

// OrN defines out ↔ (l₁ ∨ … ∨ lₙ) and returns out.  With no inputs
// out is asserted false (the empty disjunction).
func (b *Builder) OrN(lits ...int) int {
	out := b.NewVar()
	if len(lits) == 0 {
		b.Unit(-out)
		return out
	}
	long := make([]int, 0, len(lits)+1)
	long = append(long, -out)
	for _, l := range lits {
		b.Add(out, -l)
		long = append(long, l)
	}
	b.Add(long...)
	return out
}

// IffOr asserts a ↔ (l₁ ∨ … ∨ lₙ) without introducing a fresh
// variable; with no inputs it asserts ¬a.  This is the exact shape of
// the Clark-completion constraints the ground package emits.
func (b *Builder) IffOr(a int, lits ...int) {
	if len(lits) == 0 {
		b.Unit(-a)
		return
	}
	long := make([]int, 0, len(lits)+1)
	long = append(long, -a)
	for _, l := range lits {
		b.Add(a, -l)
		long = append(long, l)
	}
	b.Add(long...)
}

// --- Evaluation and serialization --------------------------------------

// Eval reports whether the assignment (indexed by variable, entry 0
// ignored) satisfies the formula.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			v := l
			if v < 0 {
				v = -v
			}
			if (l > 0) == assign[v] {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// WriteDIMACS serializes the formula in DIMACS cnf format.
func (f *Formula) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			bw.WriteString(strconv.Itoa(l))
			bw.WriteByte(' ')
		}
		bw.WriteString("0\n")
	}
	return bw.Flush()
}

// String renders the formula in DIMACS format.
func (f *Formula) String() string {
	var sb strings.Builder
	f.WriteDIMACS(&sb)
	return sb.String()
}
