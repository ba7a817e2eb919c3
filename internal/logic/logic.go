// Package logic implements first-order logic over database
// vocabularies: formula ASTs, model checking on finite databases
// (active-domain quantification), negation normal form, prenex normal
// form with standardization-apart, disjunctive normal form of
// quantifier-free matrices, and existential second-order (ESO)
// sentences with brute-force witness search.
//
// It is the input language of the paper's Theorem 1: by Fagin's
// theorem every NP collection of databases is defined by an ESO
// sentence ∃S̄ φ, and the fagin package compiles such sentences into
// DATALOG¬ programs whose fixpoint existence realizes the collection.
package logic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Formula is a first-order formula node.
type Formula interface {
	fmtInto(sb *strings.Builder)
	isFormula()
}

// Atom is a relational atom R(t̄).
type Atom struct {
	Pred string
	Args []ast.Term
}

// Eq is an equality t₁ = t₂.
type Eq struct{ Left, Right ast.Term }

// Not is negation.
type Not struct{ F Formula }

// And is conjunction (n-ary).
type And struct{ Fs []Formula }

// Or is disjunction (n-ary).
type Or struct{ Fs []Formula }

// Exists is existential quantification over first-order variables.
type Exists struct {
	Vars []string
	F    Formula
}

// Forall is universal quantification over first-order variables.
type Forall struct {
	Vars []string
	F    Formula
}

func (Atom) isFormula()   {}
func (Eq) isFormula()     {}
func (Not) isFormula()    {}
func (And) isFormula()    {}
func (Or) isFormula()     {}
func (Exists) isFormula() {}
func (Forall) isFormula() {}

// Convenience constructors.

// A builds an atom with variable arguments.
func A(pred string, vars ...string) Atom {
	args := make([]ast.Term, len(vars))
	for i, v := range vars {
		args[i] = ast.Var(v)
	}
	return Atom{Pred: pred, Args: args}
}

// Implies builds ¬a ∨ b.
func Implies(a, b Formula) Formula { return Or{Fs: []Formula{Not{a}, b}} }

func (a Atom) fmtInto(sb *strings.Builder) {
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
}

func (e Eq) fmtInto(sb *strings.Builder) {
	sb.WriteString(e.Left.String())
	sb.WriteByte('=')
	sb.WriteString(e.Right.String())
}

func (n Not) fmtInto(sb *strings.Builder) {
	sb.WriteString("¬")
	n.F.fmtInto(sb)
}

func fmtJoin(sb *strings.Builder, fs []Formula, op string) {
	sb.WriteByte('(')
	for i, f := range fs {
		if i > 0 {
			sb.WriteString(op)
		}
		f.fmtInto(sb)
	}
	sb.WriteByte(')')
}

func (a And) fmtInto(sb *strings.Builder) { fmtJoin(sb, a.Fs, " ∧ ") }
func (o Or) fmtInto(sb *strings.Builder)  { fmtJoin(sb, o.Fs, " ∨ ") }

func (e Exists) fmtInto(sb *strings.Builder) {
	sb.WriteString("∃" + strings.Join(e.Vars, ",") + ".")
	e.F.fmtInto(sb)
}

func (f Forall) fmtInto(sb *strings.Builder) {
	sb.WriteString("∀" + strings.Join(f.Vars, ",") + ".")
	f.F.fmtInto(sb)
}

// Format renders a formula.
func Format(f Formula) string {
	var sb strings.Builder
	f.fmtInto(&sb)
	return sb.String()
}

// --- model checking -----------------------------------------------------

// Eval model-checks f on db under the environment env (variable →
// universe id).  Quantifiers range over the active domain (the whole
// universe of db).  Atoms over relations missing from db are false;
// constants must be interned in db's universe or the atom is false
// (equalities with un-interned constants are false unless syntactically
// identical).
func Eval(db *relation.Database, f Formula, env map[string]int) bool {
	switch g := f.(type) {
	case Atom:
		rel := db.Relation(g.Pred)
		if rel == nil {
			return false
		}
		t := make(relation.Tuple, len(g.Args))
		for i, a := range g.Args {
			v, ok := termValue(db, a, env)
			if !ok {
				return false
			}
			t[i] = v
		}
		return rel.Has(t)
	case Eq:
		l, okl := termValue(db, g.Left, env)
		r, okr := termValue(db, g.Right, env)
		if !okl || !okr {
			return g.Left == g.Right
		}
		return l == r
	case Not:
		return !Eval(db, g.F, env)
	case And:
		for _, sub := range g.Fs {
			if !Eval(db, sub, env) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range g.Fs {
			if Eval(db, sub, env) {
				return true
			}
		}
		return false
	case Exists:
		return evalQuant(db, g.Vars, g.F, env, false)
	case Forall:
		return evalQuant(db, g.Vars, g.F, env, true)
	}
	panic(fmt.Sprintf("logic: unknown formula node %T", f))
}

func termValue(db *relation.Database, t ast.Term, env map[string]int) (int, bool) {
	if t.IsVar() {
		v, ok := env[t.Name]
		return v, ok
	}
	return db.Universe().Lookup(t.Name)
}

func evalQuant(db *relation.Database, vars []string, body Formula, env map[string]int, forall bool) bool {
	if len(vars) == 0 {
		return Eval(db, body, env)
	}
	n := db.Universe().Size()
	saved, had := env[vars[0]], false
	if _, ok := env[vars[0]]; ok {
		had = true
	}
	defer func() {
		if had {
			env[vars[0]] = saved
		} else {
			delete(env, vars[0])
		}
	}()
	for v := 0; v < n; v++ {
		env[vars[0]] = v
		sub := evalQuant(db, vars[1:], body, env, forall)
		if forall && !sub {
			return false
		}
		if !forall && sub {
			return true
		}
	}
	return forall
}

// --- ESO ----------------------------------------------------------------

// SOVar is a second-order (relation) variable.
type SOVar struct {
	Name  string
	Arity int
}

// ESO is an existential second-order sentence ∃S₁…Sₘ φ.
type ESO struct {
	SOVars []SOVar
	FO     Formula
}

// EvalWitness decides D ⊨ ∃S̄ φ by enumerating all values of the
// relation variables (2^(Σ nᵃʳⁱᵗʸ) candidates).  It errors when the
// search space exceeds maxBits bits (default 20 when 0) — this
// exponential cost is exactly what Theorem 1 trades for fixpoint
// search.  It returns a witness database (db extended with the S̄
// values) when true.
func (e *ESO) EvalWitness(db *relation.Database, maxBits int) (bool, *relation.Database, error) {
	if maxBits == 0 {
		maxBits = 20
	}
	n := db.Universe().Size()
	type slot struct {
		so    SOVar
		tuple relation.Tuple
	}
	var slots []slot
	for _, so := range e.SOVars {
		if db.Relation(so.Name) != nil {
			return false, nil, fmt.Errorf("logic: SO variable %s collides with a database relation", so.Name)
		}
		count := 1
		for i := 0; i < so.Arity; i++ {
			count *= n
		}
		for _, t := range relation.Full(so.Arity, n).Tuples() {
			slots = append(slots, slot{so, t})
		}
		_ = count
	}
	if len(slots) > maxBits {
		return false, nil, fmt.Errorf("logic: witness search over %d atoms exceeds cap %d", len(slots), maxBits)
	}
	for mask := 0; mask < 1<<len(slots); mask++ {
		work := db.Clone()
		for _, so := range e.SOVars {
			work.MustEnsure(so.Name, so.Arity)
		}
		for i, sl := range slots {
			if mask&(1<<i) != 0 {
				work.Relation(sl.so.Name).Add(sl.tuple)
			}
		}
		if Eval(work, e.FO, map[string]int{}) {
			return true, work, nil
		}
	}
	return false, nil, nil
}

// FreeVars returns the free first-order variables of f, sorted.
func FreeVars(f Formula) []string {
	seen := make(map[string]bool)
	var walk func(Formula, map[string]bool)
	walk = func(f Formula, bound map[string]bool) {
		switch g := f.(type) {
		case Atom:
			for _, t := range g.Args {
				if t.IsVar() && !bound[t.Name] {
					seen[t.Name] = true
				}
			}
		case Eq:
			for _, t := range []ast.Term{g.Left, g.Right} {
				if t.IsVar() && !bound[t.Name] {
					seen[t.Name] = true
				}
			}
		case Not:
			walk(g.F, bound)
		case And:
			for _, s := range g.Fs {
				walk(s, bound)
			}
		case Or:
			for _, s := range g.Fs {
				walk(s, bound)
			}
		case Exists:
			walk(g.F, extend(bound, g.Vars))
		case Forall:
			walk(g.F, extend(bound, g.Vars))
		}
	}
	walk(f, map[string]bool{})
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func extend(bound map[string]bool, vars []string) map[string]bool {
	out := make(map[string]bool, len(bound)+len(vars))
	for k := range bound {
		out[k] = true
	}
	for _, v := range vars {
		out[v] = true
	}
	return out
}
