// chain.go — the well-founded model as a maintained chain of Γ stages.
//
// The stages A₀ … Aₙ of the alternating fixpoint (semantics.Layer.
// Alternate) unroll into a stratified program with one copy of the IDB
// per stage: stage i is a layer over the EDB and stage i−1.  An update
// walks the chain in order, handing stage i the EDB change and the net
// change of stage i−1; by induction the result is A′ᵢ = Γ′(A′ᵢ₋₁).
//
// Where the new chain ends needs no scan: A′ᵢ₋₂ ⊆ A′ᵢ for even i, so
// the two are equal exactly when their lengths are.  The walk stops at
// the first even stage equal to the one two below and drops the stages
// past it; when no stage is, Alternate grows the chain past its old
// end.
package incr

import "repro/internal/semantics"

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
// after stage until one closes it or the chain has to grow.
func (m *Maintainer) updateChain(edb map[string]*semantics.Change, stats *UpdateStats) {
	last := len(m.chain) - 1
	wasTrue := m.state                     // the certainly-true stage before the update
	var below map[string]*semantics.Change // net change of stage i−1
	var st semantics.Stats
	i := 1
	for ; i <= last; i++ {
		ch := make(map[string]*semantics.Change, len(edb)+len(below))
		for pred, c := range edb {
			ch[pred] = c
		}
		for pred, c := range below {
			c.NegOnly = true
			ch[pred] = c
		}
		below = m.gamma.Apply(m.chain[i], m.chain[i-1], ch, &st)
		if m.settled(i) {
			break
		}
	}
	if i > last {
		m.chain = m.gamma.Alternate(m.chain, semantics.DiffStates(m.chain[last-2], m.chain[last]), true, &st)
	} else {
		m.chain = m.chain[:i+1]
	}
	m.state = m.chain[len(m.chain)-1]
	stats.Maintained, stats.Reevaluated = st.Maintained, st.Reevaluated

	// below is now the net change of the last stage walked, low =
	// min(i, last).  With i = last that is the change of True.  Otherwise
	// True moved between two even stages, which nest: stage low as the
	// walk left it lies in the old and in the new True but for its own
	// net change, so the lengths and a probe per changed tuple settle it.
	low := m.chain[min(i, last)]
	for pred, now := range m.state {
		kept, wasLen := low[pred].Len(), wasTrue[pred].Len()
		if c := below[pred]; c != nil {
			kept -= c.Add.Len()
			if i < last { // old True is stage last, untouched; it holds old low
				kept += c.Add.Intersect(wasTrue[pred]).Len()
			} else { // old True is old low, overwritten in place; new True holds new low
				wasLen += c.Del.Len() - c.Add.Len()
				kept += c.Del.Intersect(now).Len()
			}
		}
		stats.InsertedIDB += now.Len() - kept
		stats.DeletedIDB += wasLen - kept
	}
}
