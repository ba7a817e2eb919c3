package logic

import (
	"fmt"

	"repro/internal/ast"
)

// NNF converts f to negation normal form: negations pushed to atoms
// and equalities, double negations eliminated.
func NNF(f Formula) Formula { return nnf(f, false) }

func nnf(f Formula, neg bool) Formula {
	switch g := f.(type) {
	case Atom, Eq:
		if neg {
			return Not{f}
		}
		return f
	case Not:
		return nnf(g.F, !neg)
	case And:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = nnf(s, neg)
		}
		if neg {
			return Or{fs}
		}
		return And{fs}
	case Or:
		fs := make([]Formula, len(g.Fs))
		for i, s := range g.Fs {
			fs[i] = nnf(s, neg)
		}
		if neg {
			return And{fs}
		}
		return Or{fs}
	case Exists:
		if neg {
			return Forall{g.Vars, nnf(g.F, true)}
		}
		return Exists{g.Vars, nnf(g.F, false)}
	case Forall:
		if neg {
			return Exists{g.Vars, nnf(g.F, true)}
		}
		return Forall{g.Vars, nnf(g.F, false)}
	}
	panic(fmt.Sprintf("logic: unknown formula node %T", f))
}

// Block is one quantifier block of a prenex prefix.
type Block struct {
	Forall bool
	Vars   []string
}

// Prenex converts an NNF formula into prenex normal form, renaming
// bound variables apart (fresh names q0, q1, …).  It returns the
// quantifier prefix (outermost first, consecutive same-kind blocks
// merged) and the quantifier-free matrix.
func Prenex(f Formula) ([]Block, Formula) {
	ctr := 0
	fresh := func() string {
		name := fmt.Sprintf("Q%d", ctr)
		ctr++
		return name
	}
	blocks, matrix := prenex(f, map[string]string{}, fresh)
	return mergeBlocks(blocks), matrix
}

func prenex(f Formula, sub map[string]string, fresh func() string) ([]Block, Formula) {
	rename := func(t ast.Term) ast.Term {
		if t.IsVar() {
			if nn, ok := sub[t.Name]; ok {
				return ast.Var(nn)
			}
		}
		return t
	}
	switch g := f.(type) {
	case Atom:
		args := make([]ast.Term, len(g.Args))
		for i, t := range g.Args {
			args[i] = rename(t)
		}
		return nil, Atom{g.Pred, args}
	case Eq:
		return nil, Eq{rename(g.Left), rename(g.Right)}
	case Not:
		// NNF: negation only over atoms/equalities.
		_, m := prenex(g.F, sub, fresh)
		return nil, Not{m}
	case And, Or:
		var fs []Formula
		isAnd := false
		if a, ok := g.(And); ok {
			fs, isAnd = a.Fs, true
		} else {
			fs = g.(Or).Fs
		}
		var blocks []Block
		ms := make([]Formula, len(fs))
		for i, s := range fs {
			b, m := prenex(s, sub, fresh)
			blocks = append(blocks, b...)
			ms[i] = m
		}
		if isAnd {
			return blocks, And{ms}
		}
		return blocks, Or{ms}
	case Exists, Forall:
		var vars []string
		var body Formula
		isAll := false
		if e, ok := g.(Exists); ok {
			vars, body = e.Vars, e.F
		} else {
			fa := g.(Forall)
			vars, body, isAll = fa.Vars, fa.F, true
		}
		sub2 := make(map[string]string, len(sub)+len(vars))
		for k, v := range sub {
			sub2[k] = v
		}
		renamed := make([]string, len(vars))
		for i, v := range vars {
			renamed[i] = fresh()
			sub2[v] = renamed[i]
		}
		blocks, m := prenex(body, sub2, fresh)
		return append([]Block{{Forall: isAll, Vars: renamed}}, blocks...), m
	}
	panic(fmt.Sprintf("logic: unknown formula node %T", f))
}

func mergeBlocks(blocks []Block) []Block {
	var out []Block
	for _, b := range blocks {
		if len(b.Vars) == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Forall == b.Forall {
			out[len(out)-1].Vars = append(out[len(out)-1].Vars, b.Vars...)
			continue
		}
		out = append(out, Block{Forall: b.Forall, Vars: append([]string{}, b.Vars...)})
	}
	return out
}

// Lit is one literal of a DNF conjunct: an atom, a negated atom, an
// equality, or a negated equality.
type Lit struct {
	Neg  bool
	IsEq bool
	// Atom form.
	Pred string
	Args []ast.Term
	// Equality form.
	Left, Right ast.Term
}

// ToASTLiteral converts the literal to a DATALOG¬ body literal.
func (l Lit) ToASTLiteral() ast.Literal {
	if l.IsEq {
		if l.Neg {
			return ast.Neq(l.Left, l.Right)
		}
		return ast.Eq(l.Left, l.Right)
	}
	a := ast.Atom{Pred: l.Pred, Args: l.Args}
	if l.Neg {
		return ast.Neg(a)
	}
	return ast.Pos(a)
}

// DNF converts a quantifier-free NNF matrix into disjunctive normal
// form: a list of conjunctions of literals.  Exponential in the worst
// case, as the textbook transformation is.
func DNF(matrix Formula) ([][]Lit, error) {
	switch g := matrix.(type) {
	case Atom:
		return [][]Lit{{{Pred: g.Pred, Args: g.Args}}}, nil
	case Eq:
		return [][]Lit{{{IsEq: true, Left: g.Left, Right: g.Right}}}, nil
	case Not:
		switch inner := g.F.(type) {
		case Atom:
			return [][]Lit{{{Neg: true, Pred: inner.Pred, Args: inner.Args}}}, nil
		case Eq:
			return [][]Lit{{{Neg: true, IsEq: true, Left: inner.Left, Right: inner.Right}}}, nil
		default:
			return nil, fmt.Errorf("logic: DNF input not in NNF (¬ over %T)", g.F)
		}
	case Or:
		var out [][]Lit
		for _, s := range g.Fs {
			d, err := DNF(s)
			if err != nil {
				return nil, err
			}
			out = append(out, d...)
		}
		return out, nil
	case And:
		out := [][]Lit{{}}
		for _, s := range g.Fs {
			d, err := DNF(s)
			if err != nil {
				return nil, err
			}
			var next [][]Lit
			for _, left := range out {
				for _, right := range d {
					conj := make([]Lit, 0, len(left)+len(right))
					conj = append(conj, left...)
					conj = append(conj, right...)
					next = append(next, conj)
				}
			}
			out = next
		}
		return out, nil
	case Exists, Forall:
		return nil, fmt.Errorf("logic: DNF input contains quantifiers")
	}
	return nil, fmt.Errorf("logic: unknown formula node %T", matrix)
}
