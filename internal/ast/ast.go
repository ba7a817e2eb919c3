// Package ast defines the abstract syntax of DATALOG¬ programs exactly
// as in Section 2 of Kolaitis & Papadimitriou: a program is a finite set
// of rules
//
//	t₀ ← t₁, t₂, …, tᵣ
//
// where the head t₀ is an atomic formula S(x₁,…,xₙ) and each body
// literal is an equality xᵢ = xⱼ, an inequality xᵢ ≠ xⱼ, an atomic
// formula Q(x₁,…,xₙ), or a negated atomic formula ¬Q(x₁,…,xₙ).
//
// Terms may be variables or constants (the paper's succinct
// construction of Theorem 4 uses the constant 1 in a rule head).
// Programs are *not* required to be range-restricted: variables that
// appear only in the head or only in negated literals range over the
// whole universe, matching the paper's "iterate through all possible
// values for the variables" semantics.
//
// The package also derives the structural facts the rest of the system
// needs: arities, the EDB/IDB split, the predicate dependency graph,
// stratification, and the program class (positive DATALOG,
// semipositive, stratified, or general DATALOG¬).
package ast

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind discriminates variables from constants.
type TermKind int

// Term kinds.
const (
	KindVar TermKind = iota
	KindConst
)

// Term is a variable or a constant, identified by name.
type Term struct {
	Kind TermKind
	Name string
}

// Var returns a variable term.
func Var(name string) Term { return Term{Kind: KindVar, Name: name} }

// Const returns a constant term.
func Const(name string) Term { return Term{Kind: KindConst, Name: name} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// String renders the term name.  Constants that could be mistaken for
// variables by the parser (upper-case initial), collide with a keyword,
// or contain non-identifier characters are quoted, with backslashes and
// quotes escaped so the parser's string lexer reads back the exact
// name (parse → print → parse is the identity; see FuzzParser).
func (t Term) String() string {
	if t.Kind == KindConst && needsQuote(t.Name) {
		return "\"" + escapeQuoted(t.Name) + "\""
	}
	return t.Name
}

// escapeQuoted escapes the two characters that are special inside the
// parser's quoted strings.
func escapeQuoted(name string) string {
	if !strings.ContainsAny(name, "\\\"") {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '\\' || c == '"' {
			b.WriteByte('\\')
			b.WriteByte(c)
		} else {
			b.WriteByte(name[i])
		}
	}
	return b.String()
}

func needsQuote(name string) bool {
	if name == "" || name == "not" {
		// "not" is a keyword: printed bare it would lex as negation.
		return true
	}
	c := name[0]
	if c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	if c >= '0' && c <= '9' {
		// A digit-initial name lexes as a number only when it is all
		// digits; anything like "1abc" must be quoted.
		for i := 0; i < len(name); i++ {
			if name[i] < '0' || name[i] > '9' {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
		if !ok {
			return true
		}
	}
	return false
}

// Atom is a predicate applied to terms, e.g. E(x, y).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom, e.g. "E(X,y)".
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// LitKind discriminates the four body literal forms.
type LitKind int

// Literal kinds.
const (
	LitPos LitKind = iota // Q(x̄)
	LitNeg                // ¬Q(x̄)
	LitEq                 // x = y
	LitNeq                // x ≠ y
)

// Literal is one conjunct of a rule body.
type Literal struct {
	Kind  LitKind
	Atom  Atom // valid for LitPos, LitNeg
	Left  Term // valid for LitEq, LitNeq
	Right Term
}

// Pos returns a positive atom literal.
func Pos(a Atom) Literal { return Literal{Kind: LitPos, Atom: a} }

// Neg returns a negated atom literal.
func Neg(a Atom) Literal { return Literal{Kind: LitNeg, Atom: a} }

// Eq returns an equality literal.
func Eq(l, r Term) Literal { return Literal{Kind: LitEq, Left: l, Right: r} }

// Neq returns an inequality literal.
func Neq(l, r Term) Literal { return Literal{Kind: LitNeq, Left: l, Right: r} }

// String renders the literal in the parser's concrete syntax.
func (l Literal) String() string {
	switch l.Kind {
	case LitPos:
		return l.Atom.String()
	case LitNeg:
		return "!" + l.Atom.String()
	case LitEq:
		return l.Left.String() + " = " + l.Right.String()
	case LitNeq:
		return l.Left.String() + " != " + l.Right.String()
	}
	return "?"
}

// Rule is head ← body.  An empty body makes the rule a (possibly
// non-ground) fact scheme: under active-domain semantics its head
// variables range over the whole universe.
type Rule struct {
	Head Atom
	Body []Literal
}

// NewRule builds a rule.
func NewRule(head Atom, body ...Literal) Rule { return Rule{Head: head, Body: body} }

// String renders the rule, e.g. "T(X) :- E(Y,X), !T(Y)."
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars returns the distinct variable names of the rule in first-seen
// order (head first, then body left-to-right).
func (r Rule) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	for _, t := range r.Head.Args {
		add(t)
	}
	for _, l := range r.Body {
		switch l.Kind {
		case LitPos, LitNeg:
			for _, t := range l.Atom.Args {
				add(t)
			}
		case LitEq, LitNeq:
			add(l.Left)
			add(l.Right)
		}
	}
	return out
}

// PositiveVars returns the set of variables bound by positive body
// literals — the variables a join plan can bind without enumerating the
// universe.
func (r Rule) PositiveVars() map[string]bool {
	out := make(map[string]bool)
	for _, l := range r.Body {
		if l.Kind == LitPos {
			for _, t := range l.Atom.Args {
				if t.IsVar() {
					out[t.Name] = true
				}
			}
		}
	}
	return out
}

// Program is a finite set of rules plus an optional carrier (goal)
// predicate used by inflationary semantics when a single output
// relation is wanted.
type Program struct {
	Rules   []Rule
	Carrier string // optional; empty means "all IDB relations"
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Arities returns the arity of every predicate appearing in the
// program, or an error if a predicate is used with two different
// arities.
func (p *Program) Arities() (map[string]int, error) {
	ar := make(map[string]int)
	check := func(a Atom) error {
		if prev, ok := ar[a.Pred]; ok && prev != a.Arity() {
			return fmt.Errorf("predicate %s used with arities %d and %d", a.Pred, prev, a.Arity())
		}
		ar[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := check(r.Head); err != nil {
			return nil, err
		}
		for _, l := range r.Body {
			if l.Kind == LitPos || l.Kind == LitNeg {
				if err := check(l.Atom); err != nil {
					return nil, err
				}
			}
		}
	}
	return ar, nil
}

// Constants returns the distinct constant names of the program in the
// order the engine interns them at compile time (rule by rule: head
// arguments, then body literals left to right, equality terms left then
// right).  Evaluating a rewritten or restricted program over a database
// pre-interned with the original program's Constants reproduces the
// exact active domain — and hence the exact value of unsafe rules —
// of evaluating the original program.
func (p *Program) Constants() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if !t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	for _, r := range p.Rules {
		for _, t := range r.Head.Args {
			add(t)
		}
		for _, l := range r.Body {
			switch l.Kind {
			case LitPos, LitNeg:
				for _, t := range l.Atom.Args {
					add(t)
				}
			case LitEq, LitNeq:
				add(l.Left)
				add(l.Right)
			}
		}
	}
	return out
}

// IDB returns the set of intensional (nondatabase) predicates: those
// appearing in some rule head.
func (p *Program) IDB() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}

// EDB returns the set of extensional (database) predicates: those
// appearing only in rule bodies.
func (p *Program) EDB() map[string]bool {
	idb := p.IDB()
	out := make(map[string]bool)
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if (l.Kind == LitPos || l.Kind == LitNeg) && !idb[l.Atom.Pred] {
				out[l.Atom.Pred] = true
			}
		}
	}
	return out
}

// IDBList returns the IDB predicate names sorted.
func (p *Program) IDBList() []string { return sortedKeys(p.IDB()) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Validate checks arity consistency and carrier existence.  It returns
// the arity map on success.
func (p *Program) Validate() (map[string]int, error) {
	ar, err := p.Arities()
	if err != nil {
		return nil, err
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("program has no rules")
	}
	if p.Carrier != "" && !p.IDB()[p.Carrier] {
		return nil, fmt.Errorf("carrier %s is not an IDB predicate", p.Carrier)
	}
	return ar, nil
}

// Class is the syntactic class of a program, ordered by generality.
type Class int

// Program classes, from most to least restricted.
const (
	// ClassPositive: no negated literals and no inequalities — a
	// DATALOG program in the paper's sense; least fixpoint semantics
	// applies.
	ClassPositive Class = iota
	// ClassSemipositive: negation and inequality applied to EDB
	// predicates only; still monotone in the IDB relations.
	ClassSemipositive
	// ClassStratified: IDB negation allowed but no recursion through
	// negation; the Chandra–Harel stratified semantics applies.
	ClassStratified
	// ClassGeneral: recursion through negation; only fixpoint-style
	// semantics (inflationary, well-founded, Θ-fixpoints) apply.
	ClassGeneral
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPositive:
		return "positive"
	case ClassSemipositive:
		return "semipositive"
	case ClassStratified:
		return "stratified"
	case ClassGeneral:
		return "general"
	}
	return "unknown"
}

// Classify determines the program's syntactic class.
func (p *Program) Classify() Class {
	idb := p.IDB()
	positive, semipositive := true, true
	for _, r := range p.Rules {
		for _, l := range r.Body {
			switch l.Kind {
			case LitNeg:
				positive = false
				if idb[l.Atom.Pred] {
					semipositive = false
				}
			case LitNeq:
				positive = false
			}
		}
	}
	if positive {
		return ClassPositive
	}
	if semipositive {
		return ClassSemipositive
	}
	if _, err := p.Stratify(); err == nil {
		return ClassStratified
	}
	return ClassGeneral
}
