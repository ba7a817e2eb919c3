// chain.go — the well-founded model as a maintained chain of Γ stages.
//
// Van Gelder's alternating fixpoint is the sequence A₀ = ∅,
// Aᵢ = Γ(Aᵢ₋₁), where Γ(J) is the least fixpoint of the program with
// its negated IDB literals frozen against J.  The even stages grow, the
// odd ones shrink, and the model is True = A₂ₖ = A₂ₖ₊₂ with
// Possible = A₂ₖ₊₁.  Unrolled, that is a stratified program with one
// copy of the IDB per stage: stage i is semipositive over the EDB and
// stage i−1, which is what strata.go maintains.  The maintainer keeps
// A₁ … Aₙ, n = 2k+2, as private states and an update walks them in order,
// handing stage i the EDB change and the net change of stage i−1; by
// induction the result is A′ᵢ = Γ′(A′ᵢ₋₁).
//
// Where the new chain ends needs no scan: A′ᵢ₋₂ ⊆ A′ᵢ for even i, so
// the two are equal exactly when their lengths are.  The walk stops at
// the first even stage equal to the one two below, drops the stages
// past it, and applies Γ from scratch for as long as no stage is.
package incr

import (
	"repro/internal/engine"
	"repro/internal/semantics"
)

// evalChain computes the alternating fixpoint from scratch, keeping
// every stage.
func (m *Maintainer) evalChain() {
	m.chain = append(m.chain[:0], m.in.NewState())
	semantics.WellFoundedLog(m.in, func(stage engine.State) {
		m.chain = append(m.chain, stage)
	})
	m.state = m.chain[len(m.chain)-1]
}

// settled reports whether even stage i closes the chain: Aᵢ = Aᵢ₋₂.
func (m *Maintainer) settled(i int) bool {
	if i%2 != 0 {
		return false
	}
	for pred, r := range m.chain[i] {
		if r.Len() != m.chain[i-2][pred].Len() {
			return false
		}
	}
	return true
}

// updateChain walks the chain with the EDB changes, maintaining stage
// after stage until one closes it.
func (m *Maintainer) updateChain(edb map[string]*change, stats *UpdateStats) {
	last := len(m.chain) - 1
	wasTrue := m.state           // the certainly-true stage before the update
	var below map[string]*change // net change of stage i−1
	i := 1
	for ; ; i++ {
		if i > last {
			m.chain = append(m.chain, semantics.Gamma(m.in, m.chain[i-1]))
		} else {
			ch := make(map[string]*change, len(edb)+len(below))
			for pred, c := range edb {
				ch[pred] = c
			}
			for pred, c := range below {
				c.negOnly = true
				ch[pred] = c
			}
			below = m.gamma.apply(m.chain[i], m.chain[i-1], ch)
		}
		if m.settled(i) {
			break
		}
	}
	m.chain = m.chain[:i+1]
	m.state = m.chain[i]

	// below is now the net change of the last stage walked, low =
	// min(i, last).  With i = last that is the change of True.  Otherwise
	// True moved between two even stages, which nest: stage low as the
	// walk left it lies in the old and in the new True but for its own
	// net change, so the lengths and a probe per changed tuple settle it.
	low := m.chain[min(i, last)]
	for pred, now := range m.state {
		kept, wasLen := low[pred].Len(), wasTrue[pred].Len()
		if c := below[pred]; c != nil {
			kept -= c.add.Len()
			if i < last { // old True is stage last, untouched; it holds old low
				kept += c.add.Intersect(wasTrue[pred]).Len()
			} else { // old True is old low, overwritten in place; new True holds new low
				wasLen += c.del.Len() - c.add.Len()
				kept += c.del.Intersect(now).Len()
			}
		}
		stats.InsertedIDB += now.Len() - kept
		stats.DeletedIDB += wasLen - kept
	}
}
