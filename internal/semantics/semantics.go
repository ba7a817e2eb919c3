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
//     comparison point; three-valued, total on all programs.
//
// All evaluators run semi-naive by default (delta-driven; see the
// engine package for the soundness argument) and report round counts
// so benchmarks can verify the paper's |A|^k stage bound.
package semantics

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/partition"
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
	// FilterProbes counts emit-path Bloom prefilter consultations across
	// the evaluation (the frontier filter on the unpartitioned path, the
	// exchange filter on the partitioned one); FilterSkips counts the
	// definitive-absent answers that skipped the exact accumulated-state
	// probe.  Both are zero when no relation grew large enough for a
	// filter, and in Naive mode.
	FilterProbes int64
	FilterSkips  int64
}

// Core returns the stats with the prefilter telemetry cleared: the
// fields bit-exactness comparisons care about (rounds, tuples, max
// delta), which must agree across modes, worker counts and partition
// counts — the probe/skip tallies legitimately differ between them.
func (s Stats) Core() Stats {
	s.FilterProbes, s.FilterSkips = 0, 0
	return s
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

// Mode selects naive or semi-naive stage computation.
type Mode int

// Evaluation modes.
const (
	SemiNaive Mode = iota
	Naive
)

// Inflationary computes the paper's inflationary semantics Θ^∞ of
// (π, D): the inductive fixpoint of S ↦ S ∪ Θ(S).
func Inflationary(in *engine.Instance) *Result { return InflationaryMode(in, SemiNaive) }

// InflationaryMode is Inflationary with an explicit evaluation mode;
// Naive recomputes Θ(S) from scratch each stage (the ablation baseline
// for benchmark E8).
func InflationaryMode(in *engine.Instance, mode Mode) *Result {
	return lfpLoop(in, nil, mode)
}

// InflationaryLog is InflationaryMode with a per-stage observer: log is
// called with an immutable O(1) snapshot of every stage S₁ ⊆ S₂ ⊆ … of
// the induction (S₀ = ∅ is implicit), the last call being the fixpoint
// itself.  The incremental-maintenance layer persists these snapshots
// as its replay log.
func InflationaryLog(in *engine.Instance, mode Mode, log func(stage engine.State)) *Result {
	return lfpLoopLog(in, nil, mode, log)
}

// LeastFixpoint computes the standard least-fixpoint semantics.  It
// errors unless the program is monotone in its IDB relations (positive
// or semipositive), since for general DATALOG¬ a least fixpoint may
// not exist — the paper's Section 3 shows deciding that is hard.
func LeastFixpoint(in *engine.Instance) (*Result, error) {
	return LeastFixpointMode(in, SemiNaive)
}

// LeastFixpointMode is LeastFixpoint with an explicit evaluation mode.
func LeastFixpointMode(in *engine.Instance, mode Mode) (*Result, error) {
	switch c := in.Program().Classify(); c {
	case ast.ClassPositive, ast.ClassSemipositive:
		return lfpLoop(in, nil, mode), nil
	default:
		return nil, fmt.Errorf("least fixpoint semantics requires a positive or semipositive program; this one is %v", c)
	}
}

// lfpLoop iterates S ↦ S ∪ Θ(S) to its inductive fixpoint.  When
// negFixed is non-nil, negated IDB literals are evaluated against it
// instead of the evolving state (the Γ operator of the well-founded
// semantics); the iterated operator is then monotone and the loop
// yields its least fixpoint.
func lfpLoop(in *engine.Instance, negFixed engine.State, mode Mode) *Result {
	return lfpLoopLog(in, negFixed, mode, nil)
}

// lfpLoopLog is lfpLoop with an optional per-stage observer.  The loop
// never deep-copies the state: the previous stage and the round-1 delta
// are O(1) structural-sharing snapshots of cur, which stay valid while
// cur only grows (the inflationary invariant).
//
// Rounds after the first run on the engine's frontier contract: the
// Frontier entry points return exactly the genuinely-new tuples of the
// round — emissions already in cur are dropped at emit time — so the
// loop unions the returned delta into cur and moves on, with no derived
// state and no Diff.
func lfpLoopLog(in *engine.Instance, negFixed engine.State, mode Mode, log func(engine.State)) *Result {
	// K-way partitioned evaluation replaces the whole semi-naive loop:
	// the partition coordinator mirrors this loop's rounds, stats, and
	// stage observations exactly, bit-exact vs the K=1 path below.  All
	// four semantics funnel through here (stratified per stratum,
	// well-founded per Γ application), so they all partition.
	if mode == SemiNaive && in.Partitions() > 1 {
		pr := partition.Fixpoint(in, negFixed, log)
		return &Result{
			State: pr.State,
			Stats: Stats{Rounds: pr.Rounds, Tuples: pr.State.Total(), MaxDeltaTuples: pr.MaxDelta,
				FilterProbes: pr.FilterProbes, FilterSkips: pr.FilterSkips},
			Universe: in.Universe(),
		}
	}

	stats := Stats{}
	prev := in.NewState()

	negOf := func(s engine.State) engine.State {
		if negFixed != nil {
			return negFixed
		}
		return s
	}

	cur := in.ApplySplit(prev, negOf(prev))
	stats.Rounds = 1
	delta := cur.Snapshot()
	if log != nil {
		log(delta)
	}
	if n := delta.Total(); n > stats.MaxDeltaTuples {
		stats.MaxDeltaTuples = n
	}

	// The frontier prefilter exists only on the semi-naive path, where
	// this loop keeps it covering the accumulated state between rounds
	// (a false negative would corrupt the disjoint union; see
	// relation/filter.go for the soundness contract).
	useFilter := mode == SemiNaive
	var filters map[string]*relation.Filter
	if useFilter {
		filters = engine.FrontierFilters(cur)
	}

	for !delta.Empty() {
		var newDelta engine.State
		if mode == SemiNaive {
			var fst engine.FilterStats
			newDelta, fst = in.ApplyDeltaSplitFrontierFiltered(prev, delta, cur, negOf(cur), filters)
			stats.FilterProbes += fst.Probes
			stats.FilterSkips += fst.Skips
		} else {
			newDelta = in.ApplySplitFrontier(cur, negOf(cur), cur)
		}
		stats.Rounds++
		if newDelta.Empty() {
			break
		}
		if n := newDelta.Total(); n > stats.MaxDeltaTuples {
			stats.MaxDeltaTuples = n
		}
		prev = cur.Snapshot()
		cur.UnionDisjoint(newDelta)
		if useFilter {
			filters = engine.ExtendFrontierFilters(filters, cur, newDelta)
		}
		if log != nil {
			log(cur.Snapshot())
		}
		delta = newDelta
	}
	stats.Tuples = cur.Total()
	return &Result{State: cur, Stats: stats, Universe: in.Universe()}
}
