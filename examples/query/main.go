// Example query walks through demand-driven point queries: magic-set
// rewriting a program for a query's binding pattern, evaluating the
// rewritten program, and comparing against full materialization — the
// adornment mechanics, the left-vs-right recursion sensitivity, and
// the stratification fallback rule, end to end.
//
// Run with: go run ./examples/query
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/semantics"
)

func main() {
	// A 64-vertex path v0 → v1 → … → v63 and the left-recursive
	// transitive closure: the demand-friendly formulation, because the
	// recursive rule's first literal s(X,Z) carries the bound X.
	db := graphs.Path(64).Database()
	prog := parser.MustProgram(`
s(X,Y) :- E(X,Y).
s(X,Y) :- s(X,Z), E(Z,Y).
`)

	// The query s(v48, ?) has adornment "bf": first position bound to
	// the constant v48, second free.
	q := magic.MustParseQuery("s(v48, ?)")
	fmt.Printf("query %s, adornment %s\n\n", q, q.Adornment())

	// What the rewrite produces: adorned rules guarded by magic
	// predicates, a guard rule per adorned body literal, and a seed
	// rule fed from an extensional seed relation (so one rewrite
	// serves every constant with this adornment).
	rw, err := magic.Rewrite(prog, q.Pred, q.Pattern())
	check(err)
	fmt.Println("rewritten program:")
	fmt.Println(rw.Program)
	fmt.Println("report:")
	fmt.Println(rw.Report.Format())

	// Demand-driven evaluation vs full materialization + filter.
	start := time.Now()
	res, err := core.Query(prog, db, q, core.LFP)
	check(err)
	durMagic := time.Since(start)

	start = time.Now()
	full, err := core.Eval(prog, db, core.LFP)
	check(err)
	fullAns := semantics.FilterPattern(full.State["s"], q, full.Universe)
	durFull := time.Since(start)

	fmt.Printf("answers (magic): %s\n", res.Tuples.Format(res.Universe))
	fmt.Printf("answers (full):  %s\n", fullAns.Format(full.Universe))
	fmt.Printf("derived tuples: %d (magic) vs %d (full); %v vs %v\n\n",
		res.Stats.Tuples, full.Stats.Tuples, durMagic.Round(time.Microsecond), durFull.Round(time.Microsecond))

	// Stratified negation: s2 appears under negation, so a sound
	// rewrite must evaluate s2 (and everything it depends on) in full
	// — the report records that decision per predicate.
	strat := parser.MustProgram(`
s1(X,Y) :- E(X,Y).
s1(X,Y) :- s1(X,Z), E(Z,Y).
s2(X,Y) :- E(X,Y).
s2(X,Y) :- E(X,Z), s2(Z,Y).
far(X,Y) :- s1(X,Y), !s2(Y,X).
`)
	q2 := magic.MustParseQuery("far(v10, ?)")
	res2, err := core.Query(strat, db, q2, core.Stratified)
	check(err)
	fmt.Printf("stratified query %s: %d answers\n", q2, res2.Tuples.Len())
	fmt.Println(res2.Report.Format())

	// A stratifiable program's well-founded model is its stratified
	// one, so the same rewrite answers the query under both.
	res3, err := core.Query(strat, db, q2, core.WellFounded)
	check(err)
	if res3.Tuples.Format(res3.Universe) != res2.Tuples.Format(res2.Universe) {
		check(fmt.Errorf("well-founded answers to %s differ from the stratified ones", q2))
	}

	// Unstratifiable programs are rejected — there is no magic around
	// recursion through negation; use inflationary or well-founded
	// full evaluation for those.
	win := parser.MustProgram("win(X) :- E(X,Y), !win(Y).")
	if _, err := core.Query(win, db, magic.MustParseQuery("win(?)"), core.Stratified); err != nil {
		fmt.Printf("win-move rejected as expected: %v\n", err)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "example:", err)
		os.Exit(1)
	}
}
