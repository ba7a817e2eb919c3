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

// Method is how a semantics computes a program's model: strata, stages
// or alternation.  It depends on the semantics and the program's class
// alone, and MethodFor is the one place that says which.
type Method int

// The three methods.
const (
	// Strata evaluates strata bottom-up, each to its least fixpoint:
	// least fixpoint semantics and inflationary semantics on a positive
	// or semipositive program, which is one stratum and where the two
	// coincide; stratified semantics; and well-founded semantics on a
	// stratifiable program, whose model is total and the stratified one.
	Strata Method = iota
	// Stages iterates S ↦ S ∪ Θ(S) from ∅ where IDB negation makes the
	// stage sequence itself the meaning: inflationary semantics on the
	// rest.
	Stages
	// Alternation is Van Gelder's alternating fixpoint: well-founded
	// semantics on an unstratifiable program.
	Alternation
)

// MethodFor returns the method — strata, stages or alternation — by
// which sem computes prog's model, or the error saying that sem gives
// prog no meaning: least fixpoint semantics needs a positive or
// semipositive program, stratified semantics a stratifiable one, and
// inflationary and well-founded semantics take every program.
func MethodFor(sem Semantics, prog *ast.Program) (Method, error) {
	_, m, err := classify(sem, prog)
	return m, err
}

// classify is MethodFor that also returns prog's class.
func classify(sem Semantics, prog *ast.Program) (ast.Class, Method, error) {
	c := prog.Classify()
	m, err := method(sem, c)
	if err != nil && sem == Stratified {
		_, err = prog.Stratify() // its error names the cycle through negation
	}
	return c, m, err
}

// method is MethodFor on a program of class c.
func method(sem Semantics, c ast.Class) (Method, error) {
	monotone := c == ast.ClassPositive || c == ast.ClassSemipositive
	switch {
	case sem == LFP && !monotone:
		return 0, fmt.Errorf("least fixpoint semantics requires a positive or semipositive program; this one is %v", c)
	case sem == Stratified && c == ast.ClassGeneral:
		return 0, fmt.Errorf("program is not stratifiable")
	case sem == LFP, sem == Stratified, sem == Inflationary && monotone, sem == WellFounded && c != ast.ClassGeneral:
		return Strata, nil
	case sem == Inflationary:
		return Stages, nil
	case sem == WellFounded:
		return Alternation, nil
	}
	return 0, fmt.Errorf("core: unknown semantics %d", sem)
}

// Eval evaluates prog on db under the chosen semantics.  The database
// is not modified (evaluation works on a clone, since the engine
// interns program constants into the universe it is given).
func Eval(prog *ast.Program, db *relation.Database, sem Semantics) (*EvalResult, error) {
	if _, err := prog.Validate(); err != nil {
		return nil, err
	}
	c, m, err := classify(sem, prog)
	if err != nil {
		return nil, err
	}
	res := &EvalResult{Semantics: sem, Class: c}
	var r *semantics.Result
	switch m {
	case Strata:
		if r, err = semantics.Stratified(prog, db); err != nil {
			return nil, err
		}
		if sem == WellFounded {
			res.WF = &semantics.WFResult{True: r.State, Possible: r.State, Stats: r.Stats}
		}
	case Stages:
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return nil, err
		}
		r = semantics.Inflationary(in)
	case Alternation:
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return nil, err
		}
		res.WF = semantics.WellFounded(in)
		r = &semantics.Result{State: res.WF.True, Stats: res.WF.Stats, Universe: in.Universe()}
	}
	res.State, res.Stats, res.Universe = r.State, r.Stats, r.Universe
	return res, nil
}

// EvalOpts is Eval; it remains only for benchmark/.
func EvalOpts(prog *ast.Program, db *relation.Database, sem Semantics, _ semantics.Mode, _ engine.Options) (*EvalResult, error) {
	return Eval(prog, db, sem)
}

// QueryStrategy reports whether demand-driven point queries are
// available under sem for a program of class c.  Point queries need a
// semantics whose model is computed by strata: lfp, stratified,
// inflationary on a positive or semipositive program, or well-founded
// on a stratifiable one.  Every query entry point — the CLI, the
// facade, and the server — dispatches through this one rule.  Every
// rewrite is evaluated by strata, so stratified always equals ok; the
// pair remains for benchmark/.
func QueryStrategy(sem Semantics, c ast.Class) (stratified, ok bool) {
	m, err := method(sem, c)
	ok = err == nil && m == Strata
	return ok, ok
}

// Query answers a single query atom demand-driven (magic-set
// rewriting; see internal/magic and semantics.Query) under the chosen
// semantics.  db is not modified.
func Query(prog *ast.Program, db *relation.Database, q magic.Query, sem Semantics) (*semantics.QueryResult, error) {
	c, m, err := classify(sem, prog)
	if err != nil {
		return nil, err
	}
	if m != Strata {
		return nil, fmt.Errorf("core: point queries need a semantics whose model is computed by strata: lfp, stratified, inflationary on a positive or semipositive program, or well-founded on a stratifiable one (program is %v, semantics %v)", c, sem)
	}
	return semantics.Query(prog, db, q)
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
