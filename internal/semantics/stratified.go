package semantics

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
)

// Stratified evaluates the program under the stratified semantics of
// Chandra–Harel: strata are computed bottom-up, each stratum treated as
// a semipositive program whose negated predicates are fully evaluated
// lower-stratum results.  It returns an error for unstratifiable
// programs — the paper's point in Section 1 that stratified semantics
// "cannot assign meaning to all DATALOG¬ programs".
//
// The database passed in is not modified; the evaluation works on a
// clone extended with intermediate strata.
func Stratified(prog *ast.Program, db *relation.Database) (*Result, error) {
	work := db.Clone()
	insts, err := Strata(prog, work)
	if err != nil {
		return nil, err
	}
	return EvalStrata(work, insts), nil
}

// Strata compiles prog's strata, lowest first, each an engine instance
// over work whose program is the rules with heads on that stratum, in
// program order; a program without IDB negation is one stratum, the
// whole program.  Every stratum is compiled before any is evaluated, so
// each ranges over every program constant, which engine.New interns
// into work.  Predicates of lower strata appear only in a stratum's
// bodies, so they are EDB there and read from work, where EvalStrata
// installs their values.  It returns Stratify's error for an
// unstratifiable program.
func Strata(prog *ast.Program, work *relation.Database) ([]*engine.Instance, error) {
	strat, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	if _, err := prog.Validate(); err != nil {
		return nil, err
	}
	insts := make([]*engine.Instance, strat.NumStrata())
	for k := range insts {
		sub := &ast.Program{Rules: prog.RulesForStratum(strat, k)}
		if insts[k], err = engine.New(sub, work); err != nil {
			return nil, fmt.Errorf("stratum %d: %w", k, err)
		}
	}
	return insts, nil
}

// EvalStrata evaluates the strata Strata compiled over work bottom-up,
// each to its least fixpoint, installing every stratum's relations into
// work before the next reads them.  Rounds add up over the strata; the
// state holds every IDB relation, and the universe is work's.
func EvalStrata(work *relation.Database, insts []*engine.Instance) *Result {
	stats := Stats{}
	final := make(engine.State)
	for _, inst := range insts {
		res := lfpLoop(inst, nil)
		stats.add(res.Stats)
		for pred, rel := range res.State {
			work.Set(pred, rel)
			final[pred] = rel
		}
	}
	stats.Tuples = final.Total()
	return &Result{State: final, Stats: stats, Universe: work.Universe()}
}
