// Package fagin implements the general construction of Theorem 1: for
// an NP collection C of databases given as an existential second-order
// sentence Ψ = ∃S̄ φ (Fagin's theorem), it produces a fixed DATALOG¬
// program π_C such that a database D is in C iff (π_C, D) has a
// fixpoint.
//
// The pipeline follows the proof:
//
//  1. φ → NNF → prenex normal form (variables standardized apart).
//
//  2. Second-order Skolemization: each existential variable v with
//     universal dependencies ū_v is replaced by a fresh relation
//     variable X_v encoding the graph of a Skolem function —
//     the paper's equivalence
//     (∀ū)(∃v)χ ⟺ ∃X[(∀ū∀v)(X(ū,v)→χ) ∧ (∀ū)(∃v)X(ū,v)]
//     applied to every alternation at once — yielding the Skolem
//     normal form ∃S̄∃X̄ (∀x̄)(∃ȳ)(θ₁ ∨ … ∨ θ_k).
//
//  3. The matrix is put in DNF; the program π_C is then
//
//     Sⱼ(ūⱼ) ← Sⱼ(ūⱼ)            (each S̄, X̄ becomes nondatabase)
//     Q(x̄)  ← θᵢ(x̄, ȳ)           (one rule per disjunct)
//     T(z)  ← ¬Q(ū), ¬T(w)        (the toggle: no fixpoint unless Q = Aⁿ)
//
// Every fixpoint of (π_C, D) has Q = Aⁿ, which forces
// (∀x̄)(∃ȳ)∨θᵢ to hold of the guessed S̄, X̄ — and conversely.
package fagin

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/logic"
)

// SNF is a sentence in the paper's Skolem normal form:
// ∃S̄ (∀x̄)(∃ȳ)(θ₁ ∨ … ∨ θ_k).
type SNF struct {
	SOVars    []logic.SOVar
	Univ      []string // x̄
	Exist     []string // ȳ
	Disjuncts [][]logic.Lit
}

// Skolemize brings an ESO sentence into the paper's Skolem normal
// form.  The FO part must be a sentence (no free first-order
// variables); the transformation assumes a nonempty universe, as
// classical prenexing does.
func Skolemize(e *logic.ESO) (*SNF, error) {
	if fv := logic.FreeVars(e.FO); len(fv) > 0 {
		return nil, fmt.Errorf("fagin: FO part has free variables %v", fv)
	}
	blocks, matrix := logic.Prenex(logic.NNF(e.FO))

	snf := &SNF{SOVars: append([]logic.SOVar{}, e.SOVars...)}

	// Walk the prefix, accumulating universal dependencies; each
	// existential variable v becomes a Skolem relation X_v(deps, v)
	// with a totality side condition.
	type skolem struct {
		so   logic.SOVar
		deps []string
		v    string
	}
	var skolems []skolem
	var univ []string
	skCount := 0
	usedNames := map[string]bool{}
	for _, so := range e.SOVars {
		usedNames[so.Name] = true
	}
	freshPred := func() string {
		for {
			name := fmt.Sprintf("sk%d", skCount)
			skCount++
			if !usedNames[name] {
				usedNames[name] = true
				return name
			}
		}
	}

	for _, b := range blocks {
		if b.Forall {
			univ = append(univ, b.Vars...)
			continue
		}
		for _, v := range b.Vars {
			deps := append([]string{}, univ...)
			so := logic.SOVar{Name: freshPred(), Arity: len(deps) + 1}
			skolems = append(skolems, skolem{so: so, deps: deps, v: v})
			snf.SOVars = append(snf.SOVars, so)
		}
	}

	// Matrix part: (∧_v X_v(deps_v, v) → M), universally quantified
	// over univ ∪ {v…}; the existential variables become universal
	// here (they are guarded by the Skolem atoms).
	xAtom := func(sk skolem, last string) logic.Lit {
		args := make([]ast.Term, 0, len(sk.deps)+1)
		for _, d := range sk.deps {
			args = append(args, ast.Var(d))
		}
		args = append(args, ast.Var(last))
		return logic.Lit{Pred: sk.so.Name, Args: args}
	}

	mDNF, err := logic.DNF(matrix)
	if err != nil {
		return nil, err
	}
	// Guarded main part: ¬X_1 ∨ … ∨ ¬X_m ∨ M in DNF: each ¬X_v is its
	// own disjunct; M's disjuncts pass through.
	for _, sk := range skolems {
		l := xAtom(sk, sk.v)
		l.Neg = true
		snf.Disjuncts = append(snf.Disjuncts, []logic.Lit{l})
	}
	snf.Disjuncts = append(snf.Disjuncts, mDNF...)

	// Universal variables of the main part.
	snf.Univ = append(snf.Univ, univ...)
	for _, sk := range skolems {
		snf.Univ = append(snf.Univ, sk.v)
	}

	// Totality side conditions ∀deps_v ∃t_v X_v(deps_v, t_v): fresh
	// copies so the conjunct shares no variables with the main part,
	// allowing one combined ∀x̄∃ȳ block.  The combined matrix is
	// (mainDNF) ∧ (∧_v X_v(deps'_v, t_v)) — distributing the totality
	// atoms into every disjunct.
	varCount := 0
	freshVar := func() string {
		name := fmt.Sprintf("K%d", varCount)
		varCount++
		return name
	}
	var totality []logic.Lit
	for _, sk := range skolems {
		deps2 := make([]string, len(sk.deps))
		for i := range deps2 {
			deps2[i] = freshVar()
		}
		t := freshVar()
		snf.Univ = append(snf.Univ, deps2...)
		snf.Exist = append(snf.Exist, t)
		sk2 := skolem{so: sk.so, deps: deps2}
		totality = append(totality, xAtom(sk2, t))
	}
	if len(totality) > 0 {
		for i := range snf.Disjuncts {
			snf.Disjuncts[i] = append(snf.Disjuncts[i], totality...)
		}
	}
	return snf, nil
}

// ProgramNames configures the reserved predicate names of the
// Theorem 1 construction.
type ProgramNames struct {
	Q string // the "collector" predicate (default "q")
	T string // the toggle predicate (default "tg")
}

// Program builds the paper's π_C from the SNF sentence.  The database
// vocabulary is whatever predicates the disjuncts mention beyond the
// SO variables.
func (s *SNF) Program(names ProgramNames) (*ast.Program, error) {
	if names.Q == "" {
		names.Q = "q"
	}
	if names.T == "" {
		names.T = "tg"
	}
	used := map[string]bool{}
	for _, so := range s.SOVars {
		used[so.Name] = true
	}
	for _, conj := range s.Disjuncts {
		for _, l := range conj {
			if !l.IsEq {
				used[l.Pred] = true
			}
		}
	}
	if used[names.Q] || used[names.T] {
		return nil, fmt.Errorf("fagin: predicate names %q/%q collide with the sentence vocabulary", names.Q, names.T)
	}

	prog := &ast.Program{}

	// Sⱼ(ū) ← Sⱼ(ū): make every SO variable a nondatabase relation.
	for _, so := range s.SOVars {
		args := make([]ast.Term, so.Arity)
		for i := range args {
			args[i] = ast.Var(fmt.Sprintf("A%d", i))
		}
		a := ast.Atom{Pred: so.Name, Args: args}
		prog.Rules = append(prog.Rules, ast.NewRule(a, ast.Pos(a)))
	}

	// Q(x̄) ← θᵢ(x̄, ȳ).
	qArgs := make([]ast.Term, len(s.Univ))
	for i, v := range s.Univ {
		qArgs[i] = ast.Var(v)
	}
	qHead := ast.Atom{Pred: names.Q, Args: qArgs}
	for _, conj := range s.Disjuncts {
		body := make([]ast.Literal, 0, len(conj))
		for _, l := range conj {
			body = append(body, l.ToASTLiteral())
		}
		prog.Rules = append(prog.Rules, ast.NewRule(qHead, body...))
	}
	if len(s.Disjuncts) == 0 {
		// False sentence: Q has no rules, so make it IDB via identity
		// (it stays empty and the toggle kills every fixpoint on
		// nonempty domains).
		prog.Rules = append(prog.Rules, ast.NewRule(qHead, ast.Pos(qHead)))
	}

	// T(z) ← ¬Q(ū), ¬T(w).
	tz := ast.NewAtom(names.T, ast.Var("TZ"))
	uArgs := make([]ast.Term, len(s.Univ))
	for i := range uArgs {
		uArgs[i] = ast.Var(fmt.Sprintf("U%d", i))
	}
	prog.Rules = append(prog.Rules, ast.NewRule(tz,
		ast.Neg(ast.Atom{Pred: names.Q, Args: uArgs}),
		ast.Neg(ast.NewAtom(names.T, ast.Var("TW")))))

	if _, err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("fagin: generated program invalid: %w", err)
	}
	return prog, nil
}

// Theorem1Program runs the full pipeline ESO → SNF → π_C.
func Theorem1Program(e *logic.ESO) (*ast.Program, *SNF, error) {
	snf, err := Skolemize(e)
	if err != nil {
		return nil, nil, err
	}
	prog, err := snf.Program(ProgramNames{})
	if err != nil {
		return nil, nil, err
	}
	return prog, snf, nil
}
