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
// checks.  Every evaluation is one pass described by a Spec: the states
// positive and negated literals read, optional delta drivers or a head
// filter, and an optional accumulated state to drop emissions against
// (frontier.go).  Two methods run a pass:
//
//	Eval(spec)   the pass's derived tuples
//	Count(spec)  the same, each with its number of derivations
//
// and the paper's operator is the plain pass:
//
//	Apply(S)       Θ(S̄) = Eval(Spec{Pos: S})
//	IsFixpoint(S)  Θ(S̄) = S̄
//
// SemiNaive(old, Δ, cur, neg) is the semi-naive building block, the
// Spec of the tuples of Θ(cur) derivable using ≥1 Δ-tuple: under the
// inflationary iteration S ∪ Θ(S) (and under least-fixpoint iteration
// of positive programs) a derivation whose positive IDB tuples are all old was
// already valid one stage earlier, because negated atoms only grow and
// therefore only tighten.  Hence new tuples always come from
// derivations touching the delta.
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

// Mutable returns a state whose relations are all mutable, deep-copying
// exactly the ones that are immutable snapshot views.
func (s State) Mutable() State {
	c := make(State, len(s))
	for k, r := range s {
		c[k] = r.Mutable()
	}
	return c
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

// SubsetOf reports whether every relation of s is contained in the
// corresponding relation of o.
func (s State) SubsetOf(o State) bool {
	for k, r := range s {
		or, ok := o[k]
		if !ok || !r.SubsetOf(or) {
			return false
		}
	}
	return true
}

// UnionWith adds every tuple of o into s, returning the number of new
// tuples.
func (s State) UnionWith(o State) int {
	added := 0
	for k, r := range o {
		added += s[k].UnionWith(r)
	}
	return added
}

// UnionDisjoint adds every tuple of o into s without membership probes,
// returning the number of tuples added.  The caller must guarantee o is
// disjoint from s — exactly what a pass with Against returns relative
// to the state it filtered against — so the union-back is a
// straight insert instead of a probe-then-insert.
func (s State) UnionDisjoint(o State) int {
	added := 0
	for k, r := range o {
		s[k].AppendDisjoint(r)
		added += r.Len()
	}
	return added
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
