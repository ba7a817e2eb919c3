// Package semantics implements the four evaluation semantics the paper
// discusses for DATALOG¬ programs:
//
//   - Inflationary (Section 4, the paper's proposal): iterate
//     Θ̃(S) = S ∪ Θ(S) to its inductive fixpoint Θ^∞, reached after at
//     most |A|^k stages — polynomial-time data complexity, total on all
//     DATALOG¬ programs.
//   - Least fixpoint (the standard DATALOG semantics): valid for
//     programs monotone in their IDB relations (positive and
//     semipositive classes), and computed as the program's one
//     stratum: Stratify puts every IDB predicate of such a program on
//     stratum 0, whose iteration for monotone Θ converges to the least
//     fixpoint (Tarski/Kleene); core.MethodFor checks the class.
//   - Stratified (Chandra–Harel / Apt–Blair–Walker): evaluate strata
//     bottom-up, each stratum a semipositive program over the results
//     of lower strata.  Rejects unstratifiable programs.  Strata and
//     EvalStrata are the one evaluator of strata, which batch
//     evaluation, point queries and incr's maintainer share.
//   - WellFounded (Van Gelder's alternating fixpoint): the modern
//     default in XSB/DLV-style systems, included as the natural
//     comparison point; three-valued, total on all programs, and on a
//     stratifiable one the stratified model, which core and incr run.
//     Every Γ stage past the second is a DRed step of the stage two
//     below (Layer.Alternate).
//
// Layer is the one DRed maintainer of a semipositive layer — a stratum,
// or a Γ stage over the stage below — which incr's maintainer shares.
//
// All evaluators run semi-naive (delta-driven; see the engine package
// for the soundness argument) and report round counts so benchmarks
// can verify the paper's |A|^k stage bound.
package semantics

import (
	"repro/internal/engine"
	"repro/internal/relation"
)

// Stats records evaluation effort.
type Stats struct {
	// Rounds is the number of engine passes: Θ applications (stages of
	// an induction), and in the well-founded semantics also the
	// support-check, cascade, rederive and insert passes of each Γ
	// stage past A₂.
	Rounds int
	// Tuples is the total number of tuples in the final state.
	Tuples int
	// MaxDeltaTuples is the largest per-stage growth of an induction.
	MaxDeltaTuples int
	// Maintained and Reevaluated count the layers Layer.Apply updated:
	// in place, or by re-evaluation once the confirmed deletions
	// outgrew them.
	Maintained, Reevaluated int
}

// add accumulates o's engine passes and largest stage growth into s.
func (s *Stats) add(o Stats) {
	s.Rounds += o.Rounds
	s.MaxDeltaTuples = max(s.MaxDeltaTuples, o.MaxDeltaTuples)
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
// itself.
//
// Every pass appends its round's new tuples to cur (the engine's Into)
// and returns the ranges it appended, which drive the next round.  cur
// only grows, so the previous stage is a view of cur as the last pass
// began: the loop copies no state and keeps no delta of its own.  A nil
// negFixed leaves the Spec's Neg unset, which reads the evolving state.
func lfpLoopLog(in *engine.Instance, negFixed engine.State, log func(engine.State)) *Result {
	cur := in.NewState()
	prev := cur.View()
	delta := in.Eval(engine.Spec{Pos: cur, Neg: negFixed, Into: cur})
	stats := Stats{Rounds: 1, MaxDeltaTuples: delta.Total()}
	if log != nil {
		log(cur.Snapshot())
	}
	for !delta.Empty() {
		sp := engine.SemiNaive(prev, delta, cur, negFixed)
		sp.Into, prev = cur, cur.View()
		delta = in.Eval(sp)
		stats.Rounds++
		stats.MaxDeltaTuples = max(stats.MaxDeltaTuples, delta.Total())
		if log != nil && !delta.Empty() {
			log(cur.Snapshot())
		}
	}
	stats.Tuples = cur.Total()
	return &Result{State: cur, Stats: stats, Universe: in.Universe()}
}
