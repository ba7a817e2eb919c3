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
// Gelder's alternating fixpoint (Alternate), holding two stages, each
// stepped in place: True is the last stage and Possible the one below.
//
// It is total on stratified programs (where it agrees with the
// stratified semantics) and assigns a three-valued model to every
// DATALOG¬ program — the modern counterpart to the paper's inflationary
// proposal for "giving meaning to all programs".
func WellFounded(in *engine.Instance) *WFResult {
	var stats Stats
	chain := NewLayer(in, false).Alternate([]engine.State{in.NewState()}, nil, false, &stats)
	n := len(chain) - 1
	stats.Tuples = chain[n].Total()
	return &WFResult{True: chain[n], Possible: chain[n-1], Stats: stats, Outer: n / 2}
}

// Alternate continues the alternating fixpoint A₀ = ∅, Aᵢ = Γ(Aᵢ₋₁) of
// the layer's program from the stages A₀ … Aᵢ in chain, ch being Aᵢ's
// net change from Aᵢ₋₂ (nil for a chain of A₀ alone), and returns the
// chain up to the stage that closes it.  Γ(J) is the least fixpoint of
// the program with its negated IDB literals frozen against J.
//
// A₁ and A₂ are Γ from scratch.  Every later stage is one DRed step
// (Apply): Aᵢ₋₂ = Γ(Aᵢ₋₃) is maintained into Aᵢ = Γ(Aᵢ₋₁), its input
// Aᵢ₋₁'s net change from Aᵢ₋₃ on the negated side alone, and the step
// returns Aᵢ's own net change, which feeds the next.  Γ is
// antimonotone, so A₀ ⊆ A₂ ⊆ … and A₁ ⊇ A₃ ⊇ …, and the loop stops at
// the first even stage Aₙ whose net change is empty: Aₙ = Aₙ₋₂ is the
// model's True part and Aₙ₋₁ = Aₙ₊₁ its Possible part.
//
// With keep every stage is a state of its own, Aᵢ₋₂ being copied before
// the step; without it Aᵢ₋₂ is stepped in place, so past A₀ the chain
// holds two states, each at every other position.
func (l *Layer) Alternate(chain []engine.State, ch map[string]*Change, keep bool, st *Stats) []engine.State {
	if len(chain) == 1 {
		for range 2 {
			res := lfpLoop(l.in, chain[len(chain)-1])
			st.add(res.Stats)
			chain = append(chain, res.State)
		}
		ch = DiffStates(chain[0], chain[2])
	}
	for i := len(chain) - 1; i%2 == 1 || len(ch) > 0; i++ {
		own := chain[i-1]
		if keep {
			own = own.Clone()
		}
		chain = append(chain, own)
		for _, c := range ch {
			c.NegOnly = true
		}
		ch = l.Apply(own, chain[i], ch, st)
	}
	return chain
}

// Gamma is the Gelfond–Lifschitz style operator, computed from scratch:
// Γ(J) is the least fixpoint of the monotone operator
// S ↦ S ∪ Θ_{¬→J}(S) obtained by freezing negated IDB literals against
// J.  The stable-model semantics (package fixpoint) uses it: a state S
// is a stable model iff Γ(S) = S.  The alternating fixpoint computes
// its first two stages, and any it re-evaluates, the same way.
func Gamma(in *engine.Instance, j engine.State) engine.State {
	return lfpLoop(in, j).State
}
