package semantics

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/magic"
	"repro/internal/relation"
)

// Demand-driven point queries.
//
// QueryLFP and QueryStratified answer a single query atom with a
// binding pattern (e.g. tc(c, ?)) without materializing the whole
// fixpoint: the program is magic-set rewritten for the query's
// adornment (internal/magic), the rewritten program — seeded with the
// query constants — is evaluated on the ordinary frontier/planner/
// sharding machinery, and the answer relation is filtered by the
// binding.  The result is bit-exact with full evaluation restricted
// to the query predicate and pattern; the differential property test
// in query_diff_test.go holds the two paths together.

// QueryResult is the outcome of a demand-driven query.
type QueryResult struct {
	Query magic.Query
	// Tuples holds exactly the tuples of the query predicate matching
	// the binding pattern, at the predicate's full arity.
	Tuples *relation.Relation
	// Universe names the constants of Tuples.
	Universe *relation.Universe
	// Stats reports the evaluation effort of the rewritten program —
	// the demand-driven payoff is visible as a drop in Tuples/rounds
	// versus full materialization.
	Stats Stats
	// Report is the rewrite's Explain-style account (nil for
	// extensional predicates, which are answered by a direct probe).
	Report *magic.Report
}

// QueryLFP answers q on prog under the least-fixpoint semantics.  The
// program must be positive or semipositive, like LeastFixpoint.  db is
// not modified.
func QueryLFP(prog *ast.Program, db *relation.Database, q magic.Query) (*QueryResult, error) {
	switch c := prog.Classify(); c {
	case ast.ClassPositive, ast.ClassSemipositive:
	default:
		return nil, fmt.Errorf("least fixpoint queries require a positive or semipositive program; this one is %v", c)
	}
	return queryEval(prog, db, q, false)
}

// QueryStratified answers q on prog under the stratified semantics.
// It errors on unstratifiable programs, like Stratified.  db is not
// modified.
func QueryStratified(prog *ast.Program, db *relation.Database, q magic.Query) (*QueryResult, error) {
	return queryEval(prog, db, q, true)
}

// queryEval validates the query, answers extensional predicates by a
// direct probe, and otherwise rewrites and evaluates on a private
// clone of db.
func queryEval(prog *ast.Program, db *relation.Database, q magic.Query, stratified bool) (*QueryResult, error) {
	arities, err := prog.Validate()
	if err != nil {
		return nil, err
	}
	ar, ok := arities[q.Pred]
	if !ok {
		return nil, fmt.Errorf("query predicate %s does not appear in the program", q.Pred)
	}
	if len(q.Args) != ar {
		return nil, fmt.Errorf("query %s has %d args, predicate has arity %d", q.Pred, len(q.Args), ar)
	}
	if !prog.IDB()[q.Pred] {
		// Extensional predicate: the database already holds the answer.
		rel := db.Relation(q.Pred)
		if rel == nil {
			rel = relation.New(ar)
		}
		return &QueryResult{
			Query:    q,
			Tuples:   FilterPattern(rel, q, db.Universe()),
			Universe: db.Universe(),
		}, nil
	}
	rw, err := magic.Rewrite(prog, q.Pred, q.Pattern())
	if err != nil {
		return nil, err
	}
	return QueryRewritten(rw, db.Clone(), q, stratified)
}

// QueryRewrittenOpts is QueryRewritten; it remains only for benchmark/.
func QueryRewrittenOpts(rw *magic.Rewritten, work *relation.Database, q magic.Query, stratified bool, _ Mode, _ engine.Options) (*QueryResult, error) {
	return QueryRewritten(rw, work, q, stratified)
}

// QueryRewritten evaluates a prepared rewrite against work, which the
// caller hands over: seed facts are added, the original program's
// constants are interned, and (for stratified evaluation) computed
// strata are installed.  Callers that own a throwaway database — the
// server builds one per query from a snapshot's extensional relations —
// skip the Clone that QueryLFP/QueryStratified pay.
func QueryRewritten(rw *magic.Rewritten, work *relation.Database, q magic.Query, stratified bool) (*QueryResult, error) {
	// Universe parity with full evaluation: the active domain is the
	// database universe plus every original program constant, and unsafe
	// rules range over exactly that set.
	for _, c := range rw.Consts {
		work.AddConstant(c)
	}
	// A bound constant outside the universe can match nothing — and
	// interning it would grow the active domain beyond full
	// evaluation's, changing the value of unsafe rules.
	for _, a := range q.Args {
		if a.IsBound {
			if _, ok := work.Universe().Lookup(a.Const); !ok {
				return &QueryResult{
					Query:    q,
					Tuples:   relation.New(len(q.Args)),
					Universe: work.Universe(),
					Report:   rw.Report,
				}, nil
			}
		}
	}
	pred, args, err := rw.Seed(q)
	if err != nil {
		return nil, err
	}
	if err := work.AddFact(pred, args...); err != nil {
		return nil, err
	}

	var res *Result
	if stratified {
		r, err := stratifiedIn(rw.Program, work)
		if err != nil {
			return nil, err
		}
		res = r
	} else {
		in, err := engine.New(rw.Program, work)
		if err != nil {
			return nil, err
		}
		r, err := LeastFixpoint(in)
		if err != nil {
			return nil, err
		}
		res = r
	}

	ans := res.State[rw.Answer]
	if ans == nil {
		ans = relation.New(len(q.Args))
	}
	return &QueryResult{
		Query:    q,
		Tuples:   FilterPattern(ans, q, res.Universe),
		Universe: res.Universe,
		Stats:    res.Stats,
		Report:   rw.Report,
	}, nil
}

// FilterPattern returns the tuples of rel matching the query's bound
// constants, probing the composite index when any position is bound —
// the σ the demand-driven path applies to its answer relation, and the
// oracle half of "full evaluation + filter" comparisons.
func FilterPattern(rel *relation.Relation, q magic.Query, u *relation.Universe) *relation.Relation {
	out := relation.New(rel.Arity())
	var cols, vals []int
	for i, a := range q.Args {
		if !a.IsBound {
			continue
		}
		id, ok := u.Lookup(a.Const)
		if !ok {
			return out // nothing can match
		}
		cols = append(cols, i)
		vals = append(vals, id)
	}
	switch {
	case len(cols) == 0:
		out.UnionWith(rel)
	case len(cols) == rel.Arity():
		if rel.Has(relation.Tuple(vals)) {
			out.Add(relation.Tuple(vals))
		}
	default:
		for _, off := range rel.LookupCols(cols, vals) {
			out.Add(rel.At(off))
		}
	}
	return out
}
