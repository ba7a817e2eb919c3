package fixpoint

import (
	"repro/internal/engine"
	"repro/internal/semantics"
)

// StableModels enumerates the stable models (answer sets) of (π, D) —
// the semantics of modern ASP systems (DLV, clingo), included as the
// natural descendant of the negation-semantics debate the paper opens.
//
// A state S is stable when Γ(S) = S for the Gelfond–Lifschitz operator
// Γ (semantics.Gamma).  Every stable model is a *supported* model,
// i.e. a fixpoint of the paper's operator Θ: Γ(S) = S forces
// Θ(S) ⊆ S by minimality-of-Γ and S ⊆ Θ(S) because every S-atom is
// derived by some rule of the reduct, whose body also holds under Θ's
// reading.  StableModels therefore enumerates the Θ-fixpoints with the
// SAT machinery and filters by the Γ test — the converse inclusion is
// strict (a fixpoint need not be stable; see the p ← p example in the
// tests), which is itself a point of comparison with the paper's
// fixpoint semantics.
//
// fn may be nil; returning false stops early.  limit > 0 caps the
// number of stable models reported.  The boolean result reports
// exhaustiveness.
func StableModels(in *engine.Instance, limit int, fn func(engine.State) bool) (int, bool, error) {
	count := 0
	visited, complete, err := Enumerate(in, 0, func(s engine.State) bool {
		if !semantics.Gamma(in, s).Equal(s) {
			return true // supported but not stable
		}
		count++
		if fn != nil && !fn(s) {
			return false
		}
		return limit <= 0 || count < limit
	})
	_ = visited
	if err != nil {
		return 0, false, err
	}
	return count, complete, nil
}
