// Package engine implements the operator Θ of Section 2 of the paper
// and its evaluation machinery.
//
// Given a DATALOG¬ program π and a database D = (A, R₁,…,Rₗ), the
// operator Θ maps a sequence S̄ = (S₁,…,Sₘ) of IDB relations to the
// sequence of relations derived from S̄ and D by one parallel
// application of all rules, with every variable ranging over the whole
// universe A (so unsafe rules like the paper's toggle
// "T(z) ← ¬Q(ū), ¬T(w)" are fully supported).  S̄ is a fixpoint of
// (π, D) when Θ(S̄) = S̄.
//
// The engine compiles each rule into a small step plan — greedy join
// ordering over positive literals, equality-propagation, universe
// extension for unbound variables, and eager negative/comparison
// checks.  The join order is chosen per pass from the current relation
// sizes, and the plan compiled for an order is cached on the rule
// (planner.go), so a pass re-plans without recompiling.  Every
// evaluation is one pass described by a Spec: the states positive and
// negated literals read, optional delta drivers or a head filter, and
// an optional state the pass extends (Into, frontier.go).  Eval(spec)
// runs a pass and returns its derived tuples — with Into, the arena
// ranges it appended — and the paper's operator is the plain pass:
//
//	Apply(S)       Θ(S̄) = Eval(Spec{Pos: S})
//	IsFixpoint(S)  Θ(S̄) = S̄
//
// SemiNaive(old, Δ, cur, neg) is the semi-naive building block, the
// Spec of the tuples of Θ(cur) derivable using ≥1 Δ-tuple: under the
// inflationary iteration S ∪ Θ(S) (and under least-fixpoint iteration
// of positive programs) a derivation whose positive IDB tuples are all
// old was already valid one stage earlier, because negated atoms only
// grow and therefore only tighten.  Hence new tuples always come from
// derivations touching the delta.  With Into = cur, Δ is the range of
// cur the last pass appended, and old is cur as it began (View).
package engine

import (
	"sort"
	"strings"

	"repro/internal/relation"
)

// State is an assignment of relations to the IDB predicates of a
// program — the S̄ = (S₁,…,Sₘ) on which Θ operates.
type State map[string]*relation.Relation

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	for k, r := range s {
		c[k] = r.Clone()
	}
	return c
}

// Snapshot returns an O(1) immutable view of the state: every relation
// is snapshotted with structural sharing (see relation.Relation's
// Snapshot for the exact visibility and concurrency contract).
func (s State) Snapshot() State {
	c := make(State, len(s))
	for k, r := range s {
		c[k] = r.Snapshot()
	}
	return c
}

// View returns an O(1) view of every relation as it stands
// (Relation.Since(0)): unlike Snapshot it marks nothing shared, and it
// stays valid until the relation is next removed from.
func (s State) View() State {
	v := make(State, len(s))
	for k, r := range s {
		v[k] = r.Since(0)
	}
	return v
}

// Equal reports whether both states assign exactly the same relations.
func (s State) Equal(o State) bool {
	if len(s) != len(o) {
		return false
	}
	for k, r := range s {
		or, ok := o[k]
		if !ok || !r.Equal(or) {
			return false
		}
	}
	return true
}

// Diff returns the per-predicate difference s \ o as a fresh state.
func (s State) Diff(o State) State {
	out := make(State, len(s))
	for k, r := range s {
		out[k] = r.Diff(o[k])
	}
	return out
}

// Total returns the total number of tuples across all relations.
func (s State) Total() int {
	n := 0
	for _, r := range s {
		n += r.Len()
	}
	return n
}

// Empty reports whether the state holds no tuples at all.
func (s State) Empty() bool { return s.Total() == 0 }

// Preds returns the predicate names in sorted order.
func (s State) Preds() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Format renders the state deterministically with names from u.
func (s State) Format(u *relation.Universe) string {
	var b strings.Builder
	for _, k := range s.Preds() {
		b.WriteString(k)
		b.WriteString(" = ")
		b.WriteString(s[k].Format(u))
		b.WriteByte('\n')
	}
	return b.String()
}
