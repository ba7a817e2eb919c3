// Command bench regenerates the reproduction's experiment tables
// (package internal/experiments): E1–E12 are one experiment per
// theorem, lemma, worked example and proposition of the paper, E14–E17
// measure the engine built around them.  Every
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

// options collects the bench flags.
type options struct {
	exp                 string
	quick, list         bool
	explain             bool
	workers, partitions int
}

// newFlags defines the flag set over o.  Split from main so tests can
// exercise the definitions.
func newFlags(name string, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&o.exp, "exp", "", "run a single experiment (E1..E17)")
	fs.BoolVar(&o.quick, "quick", false, "shorten parameter sweeps")
	fs.BoolVar(&o.list, "list", false, "list experiments")
	fs.IntVar(&o.workers, "workers", 0, "Θ evaluation worker-pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&o.explain, "explain", false, "print per-rule evaluation plans for the join-heavy workloads and exit")
	fs.IntVar(&o.partitions, "partitions", 1, "K-way hash-partitioned evaluation with delta exchange (1 = unpartitioned)")
	return fs
}

// engineOptions is the engine configuration every experiment evaluates
// with, except where it sweeps an option itself.
func (o *options) engineOptions() engine.Options {
	return engine.Options{Workers: o.workers, Partitions: o.partitions}
}

func main() {
	var o options
	newFlags("bench", &o).Parse(os.Args[1:])
	opt := o.engineOptions()

	if o.explain {
		// Steady-state plans: evaluate first, then plan against the
		// fixpoint's relation sizes (what most rounds see).
		for _, wl := range workload.JoinWorkloads(o.quick) {
			in, err := engine.NewWith(parser.MustProgram(wl.Src), wl.DB(), opt)
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
	if o.list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s  [%s]\n", e.ID, e.Title, e.Source)
		}
		return
	}
	if o.exp != "" {
		e, ok := experiments.Find(o.exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown experiment %q (use -list)\n", o.exp)
			os.Exit(2)
		}
		if err := experiments.RunOne(os.Stdout, e, o.quick, opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := experiments.RunAll(os.Stdout, o.quick, opt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
