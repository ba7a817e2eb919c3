// Package wforacle is an independent reference for the paper's
// semantics: plain Go over maps of ground atoms, sharing nothing with
// the engine, the relation store or the evaluators it is used to check.
// It grounds the program over a given domain once, and then reads every
// semantics off the ground rules.
//
// Inflationary iterates the ground operator Θ cumulatively — S₀ = ∅,
// Sᵢ₊₁ = Sᵢ ∪ Θ(Sᵢ) — and returns the whole stage sequence (the
// paper's Section 4).  Solve computes the
// well-founded model as the least precise fixpoint of the stable
// revision operator on pairs (lower, upper) of interpretations
// (Kettmann et al.; the limit of Ésik & Rondogiannis' sequence of
// approximations): starting from (∅, every head atom), the new lower
// bound is the least model of the program with negation read against
// the upper bound, the new upper bound the least model with negation
// read against the lower one, both revised at once.  Lower is what is
// certainly true, upper what is not certainly false.
//
// The well-founded model is total, and then equal to the stratified
// model, on stratifiable programs, and equal to the least fixpoint on
// negation-free ones, so Solve checks those semantics too.
//
// Everything is naive on purpose — |domain|^variables ground instances
// per rule, least models and stages by iteration to a standstill — and
// meant for the small seeded inputs of differential tests.
package wforacle

import (
	"strings"

	"repro/internal/ast"
)

// Key names the ground atom pred(args…) in the models Solve returns.
func Key(pred string, args []string) string {
	return pred + "(" + strings.Join(args, ",") + ")"
}

// groundRule is one rule instance with its EDB literals and comparisons
// already decided: what is left speaks of IDB atoms only.
type groundRule struct {
	head     string
	pos, neg []string
}

// ground instantiates every rule of prog over domain against the
// database facts, dropping the instances whose EDB literals or
// comparisons are false.
func ground(prog *ast.Program, domain []string, facts map[string][][]string) []groundRule {
	idb := prog.IDB()
	edb := map[string]bool{}
	for pred, tuples := range facts {
		for _, t := range tuples {
			edb[Key(pred, t)] = true
		}
	}

	var rules []groundRule
	for _, r := range prog.Rules {
		vars := r.Vars()
		env := make(map[string]string, len(vars))
		val := func(t ast.Term) string {
			if t.IsVar() {
				return env[t.Name]
			}
			return t.Name
		}
		key := func(a ast.Atom) string {
			args := make([]string, len(a.Args))
			for i, t := range a.Args {
				args[i] = val(t)
			}
			return Key(a.Pred, args)
		}
		var assign func(i int)
		assign = func(i int) {
			if i < len(vars) {
				for _, c := range domain {
					env[vars[i]] = c
					assign(i + 1)
				}
				return
			}
			g := groundRule{head: key(r.Head)}
			for _, l := range r.Body {
				switch {
				case l.Kind == ast.LitEq && val(l.Left) != val(l.Right),
					l.Kind == ast.LitNeq && val(l.Left) == val(l.Right),
					l.Kind == ast.LitPos && !idb[l.Atom.Pred] && !edb[key(l.Atom)],
					l.Kind == ast.LitNeg && !idb[l.Atom.Pred] && edb[key(l.Atom)]:
					return // the instance's body is false in every interpretation
				case l.Kind == ast.LitPos && idb[l.Atom.Pred]:
					g.pos = append(g.pos, key(l.Atom))
				case l.Kind == ast.LitNeg && idb[l.Atom.Pred]:
					g.neg = append(g.neg, key(l.Atom))
				}
			}
			rules = append(rules, g)
		}
		assign(0)
	}
	return rules
}

// fires reports whether g's body holds with positive atoms read in pos
// and negated atoms in neg.
func (g groundRule) fires(pos, neg map[string]bool) bool {
	for _, a := range g.pos {
		if !pos[a] {
			return false
		}
	}
	for _, a := range g.neg {
		if neg[a] {
			return false
		}
	}
	return true
}

// theta is one application of Θ to the ground rules: the heads of the
// instances whose body holds in s.
func theta(rules []groundRule, s map[string]bool) map[string]bool {
	out := map[string]bool{}
	for _, g := range rules {
		if g.fires(s, s) {
			out[g.head] = true
		}
	}
	return out
}

// Theta is the paper's operator Θ on prog and the database facts, every
// variable ranging over domain: the IDB atoms derived from s by one
// simultaneous application of all rules.
func Theta(prog *ast.Program, domain []string, facts map[string][][]string, s map[string]bool) map[string]bool {
	return theta(ground(prog, domain, facts), s)
}

// Inflationary returns the stages S₁ ⊆ S₂ ⊆ … ⊆ Sₙ of the paper's
// inflationary semantics, Sᵢ₊₁ = Sᵢ ∪ Θ(Sᵢ) from S₀ = ∅, ending at the
// first stage Θ adds nothing to — the inflationary fixpoint Θ^∞.  Every
// stage but S₁ strictly grows the one before, so reaching and
// confirming Sₙ takes n+1 applications of Θ, or one when S₁ is empty.
func Inflationary(prog *ast.Program, domain []string, facts map[string][][]string) []map[string]bool {
	rules := ground(prog, domain, facts)
	s := theta(rules, map[string]bool{})
	stages := []map[string]bool{s}
	for len(s) > 0 {
		next := theta(rules, s)
		for a := range s {
			next[a] = true
		}
		if len(next) == len(s) {
			break
		}
		s = next
		stages = append(stages, s)
	}
	return stages
}

// Solve returns the well-founded model of prog on the database facts
// (predicate → tuples of constants), every variable ranging over
// domain: the atoms certainly true and the atoms possibly true.
func Solve(prog *ast.Program, domain []string, facts map[string][][]string) (lower, upper map[string]bool) {
	rules := ground(prog, domain, facts)

	// leastModel is the least model of the ground program with every
	// negated atom read against the fixed interpretation against.
	leastModel := func(against map[string]bool) map[string]bool {
		m := map[string]bool{}
		for grew := true; grew; {
			grew = false
			for _, g := range rules {
				if !m[g.head] && g.fires(m, against) {
					m[g.head] = true
					grew = true
				}
			}
		}
		return m
	}

	lower, upper = map[string]bool{}, map[string]bool{}
	for _, g := range rules {
		upper[g.head] = true // an atom that heads no instance is false outright
	}
	for {
		lo, up := leastModel(upper), leastModel(lower)
		if same(lo, lower) && same(up, upper) {
			return lower, upper
		}
		lower, upper = lo, up
	}
}

func same(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
