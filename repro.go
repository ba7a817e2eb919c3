// Package repro is a reproduction of "Why Not Negation by Fixpoint?"
// by Phokion G. Kolaitis and Christos H. Papadimitriou (PODS 1988;
// JCSS 43:125–144, 1991): a DATALOG¬ engine with the paper's operator
// Θ, the four semantics it discusses (least fixpoint, stratified,
// inflationary, well-founded), and SAT-backed analyses of the paper's
// decision problems — fixpoint existence (NP, Theorem 1), unique
// fixpoints (US, Theorem 2), least fixpoints (Theorem 3), and the
// succinct NEXP construction (Theorem 4).
//
// This root package is a thin facade over the internal packages for
// quickstart use:
//
//	prog, _ := repro.ParseProgram("t(X) :- e(Y,X), !t(Y).")
//	db, _ := repro.ParseFacts("e(a,b). e(b,c).")
//	res, _ := repro.Inflationary(prog, db)
//	fmt.Println(res.State["t"].Format(res.Universe))
//
// The examples/ directory exercises the full API; cmd/bench
// regenerates every experiment table (internal/experiments).
package repro

import (
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// Options configures one query call; the zero value is what Query
// uses.
type Options struct {
	// Materialize makes QueryWith materialize the full fixpoint and
	// filter it — the oracle the demand-driven magic-set path is
	// differential-tested against — instead of answering demand-driven.
	Materialize bool
}

// EvalWith evaluates prog on db under sem — the entry point behind
// Inflationary, LeastFixpoint, Stratified, and WellFounded.  The
// Options argument is ignored; it remains only for benchmark/.
func EvalWith(prog *Program, db *Database, sem Semantics, _ Options) (*Result, error) {
	return core.Eval(prog, db, sem)
}

// QueryWith is Query with per-call options.  It answers demand-driven
// (magic-set rewriting) unless Options.Materialize asks for the full
// fixpoint, filtered.
func QueryWith(prog *Program, db *Database, query string, sem Semantics, opt Options) (*QueryResult, error) {
	q, err := magic.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	if opt.Materialize {
		return core.QueryFull(prog, db, q, sem)
	}
	return core.Query(prog, db, q, sem)
}

// Program is a DATALOG¬ program.
type Program = ast.Program

// Database is a finite database D = (A, R₁, …, Rₗ).
type Database = relation.Database

// Result is an evaluation result.
type Result = core.EvalResult

// Report is a fixpoint-structure analysis.
type Report = core.Report

// ParseProgram parses DATALOG¬ source text, e.g.
// "t(X) :- e(Y,X), !t(Y).".
func ParseProgram(src string) (*Program, error) { return parser.Program(src) }

// ParseFacts parses a fact file, e.g. "e(a,b). e(b,c).".
func ParseFacts(src string) (*Database, error) { return parser.Facts(src) }

// Inflationary evaluates prog on db under the paper's inflationary
// semantics (Section 4): the inductive fixpoint of S ↦ S ∪ Θ(S).
func Inflationary(prog *Program, db *Database) (*Result, error) {
	return core.Eval(prog, db, core.Inflationary)
}

// LeastFixpoint evaluates a positive or semipositive program under the
// standard least-fixpoint semantics.
func LeastFixpoint(prog *Program, db *Database) (*Result, error) {
	return core.Eval(prog, db, core.LFP)
}

// Stratified evaluates a stratifiable program under the stratified
// semantics.
func Stratified(prog *Program, db *Database) (*Result, error) {
	return core.Eval(prog, db, core.Stratified)
}

// WellFounded evaluates prog under the well-founded semantics; the
// result's State holds the certainly-true facts and Result.WF the full
// three-valued model.  A stratifiable program is evaluated as strata:
// its model is total, so WF.Possible is WF.True and WF.Outer is 0.
func WellFounded(prog *Program, db *Database) (*Result, error) {
	return core.Eval(prog, db, core.WellFounded)
}

// Analyze reports the fixpoint structure of (prog, db): existence,
// count, uniqueness, and (with AnalyzeOptions.WithLeast via the core
// package) least-fixpoint existence.
func Analyze(prog *Program, db *Database) (*Report, error) {
	return core.Analyze(prog, db, core.AnalyzeOptions{})
}

// Semantics selects an evaluation semantics for Maintain.
type Semantics = core.Semantics

// The four semantics, for Maintain.
const (
	SemanticsInflationary Semantics = core.Inflationary
	SemanticsLFP          Semantics = core.LFP
	SemanticsStratified   Semantics = core.Stratified
	SemanticsWellFounded  Semantics = core.WellFounded
)

// Maintainer keeps the materialized result of a program exact under
// EDB fact inserts and deletes (see internal/incr): DRed maintenance
// over strata and over the Γ stages of the well-founded model, and
// recomputation for general inflationary programs.
type Maintainer = incr.Maintainer

// Fact is one EDB tuple, named by constants, for Maintainer updates.
type Fact = incr.Fact

// Maintain evaluates prog on a private copy of db under sem and
// returns a maintainer ready for incremental updates.
func Maintain(prog *Program, db *Database, sem Semantics) (*Maintainer, error) {
	return incr.New(prog, db, sem)
}

// QueryResult is the outcome of a demand-driven point query.
type QueryResult = semantics.QueryResult

// Query answers a single query atom — e.g. "s(a, ?)", constants bound,
// "?" free — demand-driven: the program is magic-set rewritten for the
// query's binding pattern (see internal/magic) and only the tuples the
// query can reach are derived, instead of materializing the whole
// fixpoint.  Point queries need a semantics whose model is computed by
// strata: lfp, stratified, inflationary on a positive or semipositive
// program, or well-founded on a stratifiable one.
func Query(prog *Program, db *Database, query string, sem Semantics) (*QueryResult, error) {
	q, err := magic.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return core.Query(prog, db, q, sem)
}
