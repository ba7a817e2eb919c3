package incr

import "repro/internal/engine"

// Chain returns an alternation's stages A₀ … Aₙ and the engine
// instance they are stages of, for tests that check each against Γ of
// the stage below.
func (m *Maintainer) Chain() ([]engine.State, *engine.Instance) { return m.chain, m.in }
