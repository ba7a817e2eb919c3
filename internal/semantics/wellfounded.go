package semantics

import "repro/internal/engine"

// WFResult is the three-valued outcome of the well-founded semantics:
// True holds the well-founded (certainly true) tuples, Possible the
// tuples not certainly false; Undefined = Possible \ True.
type WFResult struct {
	True     engine.State
	Possible engine.State
	Stats    Stats
	// Outer counts alternating-fixpoint iterations (pairs of Γ
	// applications); 0 where core.Eval or incr computed a
	// stratifiable program's model as strata.
	Outer int
}

// Undefined returns the tuples with undefined truth value.
func (r *WFResult) Undefined() engine.State { return r.Possible.Diff(r.True) }

// Total reports whether the well-founded model is two-valued.
func (r *WFResult) Total() bool { return r.Possible.Equal(r.True) }

// WellFounded computes the well-founded model of (π, D) by Van
// Gelder's alternating fixpoint.  Γ(J) is the least fixpoint of the
// monotone operator S ↦ S ∪ Θ_{¬→J}(S), where negated IDB literals are
// frozen against J; the sequence lo₀ = ∅, lo_{k+1} = Γ(Γ(lo_k)) is
// increasing and its limit is the set of well-founded true facts, with
// Γ(lo) the over-approximation of possibly-true facts.
//
// It is total on stratified programs (where it agrees with the
// stratified semantics) and assigns a three-valued model to every
// DATALOG¬ program — the modern counterpart to the paper's inflationary
// proposal for "giving meaning to all programs".
func WellFounded(in *engine.Instance) *WFResult {
	return WellFoundedLog(in, nil)
}

// WellFoundedLog is WellFounded with a stage observer (nil for none):
// log is called with every application of Γ in turn, A₁ = Γ(∅),
// A₂ = Γ(A₁), … up to the Aₙ that confirms the fixpoint, n = 2·Outer.
// On exit True is Aₙ, the same set as Aₙ₋₂, and Possible is Aₙ₋₁.  The
// stages are the evaluator's own states, not copies, and it only reads
// a stage once observed: an observer may keep them, and may mutate
// them after the call if it drops the result, whose True and Possible
// are two of them.  The incremental-maintenance layer keeps them as
// its chain.
//
// Without an observer at most two stages are held at once.  The even
// stages grow predicate by predicate (Γ is antimonotone, so Γ² is
// monotone from ∅: A₀ ⊆ A₂ ⊆ …), so Aₙ = Aₙ₋₂ exactly when their sizes
// are equal, and of Aₙ₋₂ only its size is kept while Aₙ is computed.
func WellFoundedLog(in *engine.Instance, log func(stage engine.State)) *WFResult {
	gamma := func(j engine.State) (engine.State, Stats) {
		res := lfpLoop(in, j)
		if log != nil {
			log(res.State)
		}
		return res.State, res.Stats
	}

	stats := Stats{}
	lo := in.NewState()
	var hi engine.State
	outer := 0
	for {
		outer++
		h, s1 := gamma(lo)
		size := lo.Total()
		lo = nil
		l2, s2 := gamma(h)
		stats.Rounds += s1.Rounds + s2.Rounds
		if s1.MaxDeltaTuples > stats.MaxDeltaTuples {
			stats.MaxDeltaTuples = s1.MaxDeltaTuples
		}
		if s2.MaxDeltaTuples > stats.MaxDeltaTuples {
			stats.MaxDeltaTuples = s2.MaxDeltaTuples
		}
		hi, lo = h, l2
		if lo.Total() == size {
			break
		}
	}
	stats.Tuples = lo.Total()
	return &WFResult{True: lo, Possible: hi, Stats: stats, Outer: outer}
}

// Gamma is the Gelfond–Lifschitz style operator used by both the
// well-founded alternating fixpoint above and the stable-model
// semantics (package fixpoint): Γ(J) is the least fixpoint of the
// monotone operator S ↦ S ∪ Θ_{¬→J}(S) obtained by freezing negated
// IDB literals against J.  A state S is a stable model iff Γ(S) = S.
func Gamma(in *engine.Instance, j engine.State) engine.State {
	return lfpLoop(in, j).State
}
