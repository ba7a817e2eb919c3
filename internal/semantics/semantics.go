// Package semantics implements the four evaluation semantics the paper
// discusses for DATALOG¬ programs:
//
//   - Inflationary (Section 4, the paper's proposal): iterate
//     Θ̃(S) = S ∪ Θ(S) to its inductive fixpoint Θ^∞, reached after at
//     most |A|^k stages — polynomial-time data complexity, total on all
//     DATALOG¬ programs.
//   - LeastFixpoint (the standard DATALOG semantics): valid for
//     programs monotone in their IDB relations (positive and
//     semipositive classes); computed by the same iteration, which for
//     monotone Θ converges to the least fixpoint (Tarski/Kleene).
//   - Stratified (Chandra–Harel / Apt–Blair–Walker): evaluate strata
//     bottom-up, each stratum a semipositive program over the results
//     of lower strata.  Rejects unstratifiable programs.
//   - WellFounded (Van Gelder's alternating fixpoint): the modern
//     default in XSB/DLV-style systems, included as the natural
//     comparison point; three-valued, total on all programs, and on a
//     stratifiable one the stratified model, which core and incr run.
//
// All evaluators run semi-naive (delta-driven; see the engine package
// for the soundness argument) and report round counts so benchmarks
// can verify the paper's |A|^k stage bound.
package semantics

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
)

// Stats records evaluation effort.
type Stats struct {
	// Rounds is the number of Θ applications (stages of the induction).
	Rounds int
	// Tuples is the total number of tuples in the final state.
	Tuples int
	// MaxDeltaTuples is the largest per-stage growth observed.
	MaxDeltaTuples int
}

// Result is the outcome of a two-valued evaluation.
type Result struct {
	State engine.State
	Stats Stats
	// Universe names the constants the state's tuples refer to.  For
	// stratified evaluation it extends (and shares the ids of) the
	// caller's database universe.
	Universe *relation.Universe
}

// Mode is kept only because benchmark/ passes SemiNaive to
// core.EvalOpts and QueryRewrittenOpts: every evaluation is semi-naive.
type Mode int

// SemiNaive is the one Mode.
const SemiNaive Mode = 0

// Inflationary computes the paper's inflationary semantics Θ^∞ of
// (π, D): the inductive fixpoint of S ↦ S ∪ Θ(S).
func Inflationary(in *engine.Instance) *Result { return lfpLoop(in, nil) }

// LeastFixpoint computes the standard least-fixpoint semantics.  It
// errors unless the program is monotone in its IDB relations (positive
// or semipositive), since for general DATALOG¬ a least fixpoint may
// not exist — the paper's Section 3 shows deciding that is hard.
func LeastFixpoint(in *engine.Instance) (*Result, error) {
	switch c := in.Program().Classify(); c {
	case ast.ClassPositive, ast.ClassSemipositive:
		return lfpLoop(in, nil), nil
	default:
		return nil, fmt.Errorf("least fixpoint semantics requires a positive or semipositive program; this one is %v", c)
	}
}

// lfpLoop iterates S ↦ S ∪ Θ(S) to its inductive fixpoint.  When
// negFixed is non-nil, negated IDB literals are evaluated against it
// instead of the evolving state (the Γ operator of the well-founded
// semantics); the iterated operator is then monotone and the loop
// yields its least fixpoint.
func lfpLoop(in *engine.Instance, negFixed engine.State) *Result {
	return lfpLoopLog(in, negFixed, nil)
}

// lfpLoopLog is lfpLoop with an optional per-stage observer: log is
// called with an immutable O(1) snapshot of every stage S₁ ⊆ S₂ ⊆ … of
// the induction (S₀ = ∅ is implicit), the last call being the fixpoint
// itself.  The loop never deep-copies the state: the previous stage and the round-1 delta
// are O(1) structural-sharing snapshots of cur, which stay valid while
// cur only grows (the inflationary invariant).
//
// Rounds after the first run on the engine's frontier contract: a pass
// with Against = cur returns exactly the genuinely-new tuples of the
// round — emissions already in cur are dropped at emit time — so the
// loop unions the returned delta into cur and moves on, with no derived
// state and no Diff.  A nil negFixed leaves the Spec's Neg unset, which
// reads the evolving state.
func lfpLoopLog(in *engine.Instance, negFixed engine.State, log func(engine.State)) *Result {
	stats := Stats{}
	prev := in.NewState()

	cur := in.Eval(engine.Spec{Pos: prev, Neg: negFixed})
	stats.Rounds = 1
	delta := cur.Snapshot()
	if log != nil {
		log(delta)
	}
	if n := delta.Total(); n > stats.MaxDeltaTuples {
		stats.MaxDeltaTuples = n
	}

	for !delta.Empty() {
		sp := engine.SemiNaive(prev, delta, cur, negFixed)
		sp.Against = cur
		newDelta := in.Eval(sp)
		stats.Rounds++
		if newDelta.Empty() {
			break
		}
		if n := newDelta.Total(); n > stats.MaxDeltaTuples {
			stats.MaxDeltaTuples = n
		}
		prev = cur.Snapshot()
		cur.UnionDisjoint(newDelta)
		if log != nil {
			log(cur.Snapshot())
		}
		delta = newDelta
	}
	stats.Tuples = cur.Total()
	return &Result{State: cur, Stats: stats, Universe: in.Universe()}
}
