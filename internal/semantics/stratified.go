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
	return stratifiedIn(prog, db.Clone())
}

// stratifiedIn is the stratified evaluation loop on a caller-owned
// working database: work is mutated in place (program constants are
// interned into its universe, computed strata are installed as
// relations).  QueryRewritten uses it to evaluate rewritten
// programs without deep-copying a database it already owns.
func stratifiedIn(prog *ast.Program, work *relation.Database) (*Result, error) {
	strat, err := prog.Stratify()
	if err != nil {
		return nil, err
	}
	if _, err := prog.Validate(); err != nil {
		return nil, err
	}

	stats := Stats{}
	final := make(engine.State)

	// Every stratum is compiled before any is evaluated, so each ranges
	// over every program constant, as incr's strata do.  Predicates of
	// lower strata appear only in bodies of sub, so they are EDB there
	// and read from work, where the loop below installs their values.
	insts := make([]*engine.Instance, strat.NumStrata())
	for k := range insts {
		sub := &ast.Program{Rules: prog.RulesForStratum(strat, k)}
		if insts[k], err = engine.New(sub, work); err != nil {
			return nil, fmt.Errorf("stratum %d: %w", k, err)
		}
	}
	for _, inst := range insts {
		res := lfpLoop(inst, nil)
		stats.Rounds += res.Stats.Rounds
		if res.Stats.MaxDeltaTuples > stats.MaxDeltaTuples {
			stats.MaxDeltaTuples = res.Stats.MaxDeltaTuples
		}
		for pred, rel := range res.State {
			work.Set(pred, rel)
			final[pred] = rel
		}
	}
	stats.Tuples = final.Total()
	return &Result{State: final, Stats: stats, Universe: work.Universe()}, nil
}
