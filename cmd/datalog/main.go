// Command datalog evaluates a DATALOG¬ program on a fact file under a
// chosen semantics and prints the computed relations.
//
// Usage:
//
//	datalog -program tc.dl -facts graph.dl [-semantics inflationary] [-stats] [-explain]
//	datalog -program tc.dl -facts graph.dl -query 's(a, ?)' [-magic=false]
//
// Semantics: inflationary (default, the paper's Section 4 proposal),
// lfp (positive/semipositive programs), stratified, wellfounded.
//
// With -query the program is not materialized: the query atom
// (constants bound, "?" free) is answered demand-driven by magic-set
// rewriting — only the tuples the query can reach are derived.
// -magic=false answers the same query from a full materialization
// instead (the oracle the magic path is tested against); -explain
// prints the rewrite report.  Point queries need a semantics whose
// model is computed by strata: lfp, stratified, inflationary on a
// positive or semipositive program, or well-founded on a stratifiable
// one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// options collects the datalog flags.
type options struct {
	program, facts string
	semantics      string
	stats, explain bool
	query          string
	magic          bool
}

// newFlags defines the flag set over o.  Split from main so tests can
// exercise the definitions.
func newFlags(name string, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&o.program, "program", "", "path to the DATALOG¬ program")
	fs.StringVar(&o.facts, "facts", "", "path to the fact file")
	fs.StringVar(&o.semantics, "semantics", "inflationary", "inflationary|lfp|stratified|wellfounded")
	fs.BoolVar(&o.stats, "stats", false, "print evaluation statistics")
	fs.BoolVar(&o.explain, "explain", false, "print per-rule evaluation plans at the computed fixpoint")
	fs.StringVar(&o.query, "query", "", "answer one query atom, e.g. 's(a, ?)' ('?' marks free positions)")
	fs.BoolVar(&o.magic, "magic", true, "with -query: demand-driven magic-set evaluation (false = full materialization + filter)")
	return fs
}

func main() {
	var o options
	fs := newFlags("datalog", &o)
	fs.Parse(os.Args[1:])
	if o.program == "" || o.facts == "" {
		fmt.Fprintln(os.Stderr, "usage: datalog -program FILE -facts FILE [-semantics NAME]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datalog:", err)
		os.Exit(1)
	}
}

// run evaluates (or queries) as o says, writing the answer to w.
func run(o *options, w io.Writer) error {
	prog, err := parser.ProgramFile(o.program)
	if err != nil {
		return err
	}
	db, err := parser.FactsFile(o.facts)
	if err != nil {
		return err
	}
	sem, err := core.ParseSemantics(o.semantics)
	if err != nil {
		return err
	}
	if o.query != "" {
		return runQuery(w, prog, db, o.query, sem, o.magic, o.explain, o.stats)
	}

	res, err := core.Eval(prog, db, sem)
	if err != nil {
		return err
	}
	if o.explain {
		// Plans against the computed relations: the sizes (and hence
		// join orders) most evaluation rounds saw.  The instance is
		// built on a fresh clone, like core.Eval's own.
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "% evaluation plans at the computed fixpoint:")
		in.Explain(w, res.State)
	}
	fmt.Fprintf(w, "%% class: %v, semantics: %v\n", res.Class, res.Semantics)
	for _, pred := range res.State.Preds() {
		fmt.Fprintf(w, "%s/%d = %s\n", pred, res.State[pred].Arity(), res.State[pred].Format(res.Universe))
	}
	if res.WF != nil && !res.WF.Total() {
		fmt.Fprintln(w, "% undefined atoms (three-valued model):")
		und := res.WF.Undefined()
		for _, pred := range und.Preds() {
			if und[pred].Len() > 0 {
				fmt.Fprintf(w, "%% undef %s = %s\n", pred, und[pred].Format(res.Universe))
			}
		}
	}
	if o.stats {
		fmt.Fprintf(w, "%% rounds=%d tuples=%d maxDelta=%d\n",
			res.Stats.Rounds, res.Stats.Tuples, res.Stats.MaxDeltaTuples)
	}
	return nil
}

// runQuery answers one query atom, demand-driven or via the full
// materialization oracle.
func runQuery(w io.Writer, prog *ast.Program, db *relation.Database, src string, sem core.Semantics, magicOn, explain, stats bool) error {
	q, err := magic.ParseQuery(src)
	if err != nil {
		return err
	}
	// Validate the query against the program up front, so the full
	// oracle path rejects exactly what the magic path rejects.
	arities, err := prog.Validate()
	if err != nil {
		return err
	}
	ar, known := arities[q.Pred]
	if !known {
		return fmt.Errorf("query predicate %s does not appear in the program", q.Pred)
	}
	if len(q.Args) != ar {
		return fmt.Errorf("query %s has %d args, predicate has arity %d", q.Pred, len(q.Args), ar)
	}
	if _, ok := core.QueryStrategy(sem, prog.Classify()); !ok {
		return fmt.Errorf("point queries need a semantics whose model is computed by strata: lfp, stratified, inflationary on a positive or semipositive program, or well-founded on a stratifiable one (program is %v; try -semantics stratified)", prog.Classify())
	}

	start := time.Now()
	var res *semantics.QueryResult
	if magicOn {
		res, err = core.Query(prog, db, q, sem)
	} else {
		res, err = core.QueryFull(prog, db, q, sem)
	}
	if err != nil {
		return err
	}
	dur := time.Since(start)

	if explain && res.Report != nil {
		fmt.Fprint(w, "% rewrite report:\n")
		for _, line := range strings.Split(strings.TrimRight(res.Report.Format(), "\n"), "\n") {
			fmt.Fprintf(w, "%%   %s\n", line)
		}
	}
	fmt.Fprintf(w, "%% query %s (%s)\n", q, map[bool]string{true: "magic", false: "full"}[magicOn])
	fmt.Fprintf(w, "%s = %s\n", q.Pred, res.Tuples.Format(res.Universe))
	if stats {
		fmt.Fprintf(w, "%% matched=%d derived=%d rounds=%d in %v\n",
			res.Tuples.Len(), res.Stats.Tuples, res.Stats.Rounds, dur.Round(time.Microsecond))
	}
	return nil
}
