// Package core is the paper-facing API of the reproduction: one entry
// point to evaluate a DATALOG¬ program under any of the four semantics
// the paper discusses, and one to analyze the fixpoint structure of
// (π, D) — existence, count, uniqueness, least fixpoint — realizing
// the decision problems of Theorems 1–3 on concrete inputs.
package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/magic"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// Semantics selects an evaluation semantics.
type Semantics int

// The four semantics.
const (
	// Inflationary is the paper's Section 4 proposal: Θ^∞, total on
	// all DATALOG¬ programs, polynomial-time data complexity.
	Inflationary Semantics = iota
	// LFP is the standard least-fixpoint semantics, defined for
	// positive and semipositive programs.
	LFP
	// Stratified is the Chandra–Harel stratified semantics, defined
	// for stratifiable programs.
	Stratified
	// WellFounded is Van Gelder's three-valued semantics, total on
	// all programs (the modern comparison point).
	WellFounded
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case Inflationary:
		return "inflationary"
	case LFP:
		return "lfp"
	case Stratified:
		return "stratified"
	case WellFounded:
		return "well-founded"
	}
	return "unknown"
}

// ParseSemantics maps a name (as accepted by the CLIs) to a Semantics.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "inflationary", "inf":
		return Inflationary, nil
	case "lfp", "least":
		return LFP, nil
	case "stratified", "strat":
		return Stratified, nil
	case "wellfounded", "well-founded", "wf":
		return WellFounded, nil
	}
	return 0, fmt.Errorf("core: unknown semantics %q (want inflationary|lfp|stratified|wellfounded)", name)
}

// EvalResult is the outcome of Eval.
type EvalResult struct {
	// Semantics echoes the semantics evaluated.
	Semantics Semantics
	// Class is the syntactic class of the program.
	Class ast.Class
	// State holds the computed relations (for WellFounded, the
	// certainly-true part).
	State engine.State
	// Universe names the constants of State's tuples.
	Universe *relation.Universe
	// Stats reports evaluation effort.
	Stats semantics.Stats
	// WF carries the full three-valued result for WellFounded; computed
	// as strata for a stratifiable program, it is total with Outer 0.
	WF *semantics.WFResult
}

// Eval evaluates prog on db under the chosen semantics.  The database
// is not modified (evaluation works on a clone, since the engine
// interns program constants into the universe it is given).
func Eval(prog *ast.Program, db *relation.Database, sem Semantics) (*EvalResult, error) {
	if _, err := prog.Validate(); err != nil {
		return nil, err
	}
	res := &EvalResult{Semantics: sem, Class: prog.Classify()}
	switch sem {
	case WellFounded:
		// Only cyclic negation alternates: a stratifiable program's
		// model is its stratified one.  incr.pickStrategy agrees.
		if res.Class == ast.ClassGeneral {
			in, err := engine.New(prog, db.Clone())
			if err != nil {
				return nil, err
			}
			wf := semantics.WellFounded(in)
			res.State, res.Stats, res.Universe = wf.True, wf.Stats, in.Universe()
			res.WF = wf
			break
		}
		fallthrough
	case Stratified:
		r, err := semantics.Stratified(prog, db)
		if err != nil {
			return nil, err
		}
		res.State, res.Stats, res.Universe = r.State, r.Stats, r.Universe
		if sem == WellFounded {
			res.WF = &semantics.WFResult{True: r.State, Possible: r.State, Stats: r.Stats}
		}
	case Inflationary:
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return nil, err
		}
		r := semantics.Inflationary(in)
		res.State, res.Stats, res.Universe = r.State, r.Stats, r.Universe
	case LFP:
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return nil, err
		}
		r, err := semantics.LeastFixpoint(in)
		if err != nil {
			return nil, err
		}
		res.State, res.Stats, res.Universe = r.State, r.Stats, r.Universe
	default:
		return nil, fmt.Errorf("core: unknown semantics %d", sem)
	}
	return res, nil
}

// EvalOpts is Eval; it remains only for benchmark/.
func EvalOpts(prog *ast.Program, db *relation.Database, sem Semantics, _ semantics.Mode, _ engine.Options) (*EvalResult, error) {
	return Eval(prog, db, sem)
}

// QueryStrategy reports whether demand-driven point queries are
// available under sem for a program of class c, and if so whether they
// evaluate under the stratified semantics.  Point queries exist for
// LFP and stratified evaluation, and for inflationary evaluation
// exactly where it coincides with LFP (positive and semipositive
// programs); well-founded (and non-coinciding inflationary) programs
// have no magic rewrite.  Every query entry point — the CLI, the
// facade, and the server — dispatches through this one rule.
func QueryStrategy(sem Semantics, c ast.Class) (stratified, ok bool) {
	switch sem {
	case Stratified:
		return true, true
	case LFP:
		return false, true
	case Inflationary:
		return false, c == ast.ClassPositive || c == ast.ClassSemipositive
	}
	return false, false
}

// Query answers a single query atom demand-driven (magic-set
// rewriting; see internal/magic and semantics.QueryLFP/
// QueryStratified) under the chosen semantics.  db is not modified.
func Query(prog *ast.Program, db *relation.Database, q magic.Query, sem Semantics) (*semantics.QueryResult, error) {
	stratified, ok := QueryStrategy(sem, prog.Classify())
	if !ok {
		return nil, fmt.Errorf("core: point queries require lfp, stratified, or coinciding inflationary semantics (program is %v, semantics %v)", prog.Classify(), sem)
	}
	if stratified {
		return semantics.QueryStratified(prog, db, q)
	}
	return semantics.QueryLFP(prog, db, q)
}

// QueryFull answers the same query by full materialization plus a
// filter — the oracle the demand-driven path is differential-tested
// and benchmarked against (experiment E16, `datalog -magic=false`).
// Predicates absent from the computed state (extensional, or untouched
// by any rule) fall back to the database relation or an empty one.
func QueryFull(prog *ast.Program, db *relation.Database, q magic.Query, sem Semantics) (*semantics.QueryResult, error) {
	full, err := Eval(prog, db, sem)
	if err != nil {
		return nil, err
	}
	rel := full.State[q.Pred]
	if rel == nil {
		if rel = db.Relation(q.Pred); rel == nil {
			rel = relation.New(len(q.Args))
		}
	}
	return &semantics.QueryResult{
		Query:    q,
		Tuples:   semantics.FilterPattern(rel, q, full.Universe),
		Universe: full.Universe,
		Stats:    full.Stats,
	}, nil
}

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// CountLimit caps fixpoint counting (0 = count exactly up to the
	// fixpoint package's enumeration cap).
	CountLimit int
	// WithLeast additionally runs the Theorem 3 least-fixpoint
	// criterion (requires exhaustive enumeration; exponential in the
	// worst case).
	WithLeast bool
}

// Report is the outcome of Analyze: the fixpoint structure of (π, D).
type Report struct {
	Class ast.Class
	// Exists and Example: Theorem 1's decision problem.
	Exists  bool
	Example engine.State
	// Count of fixpoints (exact when CountExact).
	Count      int
	CountExact bool
	// Unique: Theorem 2's decision problem (Count == 1).
	Unique bool
	// Least: Theorem 3's analysis, when requested.
	Least *fixpoint.LeastResult
	// Universe names the constants of the states above.
	Universe *relation.Universe
}

// Analyze decides fixpoint existence, count, uniqueness and (on
// request) least-fixpoint existence for (π, D).  The database is not
// modified.
func Analyze(prog *ast.Program, db *relation.Database, opt AnalyzeOptions) (*Report, error) {
	if _, err := prog.Validate(); err != nil {
		return nil, err
	}
	work := db.Clone()
	in, err := engine.New(prog, work)
	if err != nil {
		return nil, err
	}
	rep := &Report{Class: prog.Classify(), Universe: work.Universe()}

	rep.Exists, rep.Example, err = fixpoint.Exists(in)
	if err != nil {
		return nil, err
	}
	rep.Count, rep.CountExact, err = fixpoint.Count(in, opt.CountLimit)
	if err != nil {
		return nil, err
	}
	rep.Unique = rep.CountExact && rep.Count == 1
	if opt.WithLeast {
		rep.Least, err = fixpoint.Least(in)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
