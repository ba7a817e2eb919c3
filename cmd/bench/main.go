// Command bench regenerates the reproduction's experiment tables
// (package internal/experiments): E1–E12 are one experiment per
// theorem, lemma, worked example and proposition of the paper, E14 and
// E16 measure the engine built around them.  Every
// row is checked against the paper's claim; a MISMATCH in any table
// (and a nonzero exit) means the reproduction diverges.
//
// Usage:
//
//	bench            # run everything (full sweeps)
//	bench -exp E7    # one experiment
//	bench -quick     # shortened sweeps
//	bench -explain   # print the join-heavy workloads' evaluation plans
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/parser"
	"repro/internal/semantics"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E16)")
	quick := flag.Bool("quick", false, "shorten parameter sweeps")
	list := flag.Bool("list", false, "list experiments")
	explain := flag.Bool("explain", false, "print per-rule evaluation plans for the join-heavy workloads and exit")
	flag.Parse()

	if *explain {
		// Steady-state plans: evaluate first, then plan against the
		// fixpoint's relation sizes (what most rounds see).
		for _, wl := range workload.JoinWorkloads(*quick) {
			in, err := engine.New(parser.MustProgram(wl.Src), wl.DB())
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			res := semantics.Inflationary(in)
			fmt.Printf("=== %s (plans at fixpoint)\n", wl.Name)
			in.Explain(os.Stdout, res.State)
			fmt.Println()
		}
		return
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s  [%s]\n", e.ID, e.Title, e.Source)
		}
		return
	}
	if *exp != "" {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		if err := experiments.RunOne(os.Stdout, e, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := experiments.RunAll(os.Stdout, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
