// Command bench regenerates the reproduction's experiment tables
// E1–E18 (package internal/experiments): E1–E12 are one experiment per
// theorem, lemma, worked example and proposition of the paper, E13–E18
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

func main() {
	var (
		exp        = flag.String("exp", "", "run a single experiment (E1..E18)")
		quick      = flag.Bool("quick", false, "shorten parameter sweeps")
		list       = flag.Bool("list", false, "list experiments")
		workers    = flag.Int("workers", 0, "Θ evaluation worker-pool size (0 = GOMAXPROCS)")
		planner    = flag.Bool("planner", true, "cost-based join planning (false = syntactic literal order)")
		explain    = flag.Bool("explain", false, "print per-rule evaluation plans for the join-heavy workloads and exit")
		frontier   = flag.Bool("frontier", true, "fused dedup-at-emit derivation (false = derive+Diff baseline)")
		ffilter    = flag.Bool("frontier-filter", true, "Bloom-prefiltered frontier dedup probes (false = exact probes only)")
		shard      = flag.Bool("shard", true, "intra-rule data-parallel sharding when rules < workers")
		partitions = flag.Int("partitions", 1, "K-way hash-partitioned evaluation with delta exchange (1 = unpartitioned)")
	)
	flag.Parse()
	engine.SetDefaultWorkers(*workers)
	engine.SetDefaultCostPlanner(*planner)
	engine.SetDefaultFrontier(*frontier)
	engine.SetDefaultFrontierFilter(*ffilter)
	engine.SetDefaultSharding(*shard)
	engine.SetDefaultPartitions(*partitions)

	if *explain {
		// Steady-state plans: evaluate first, then plan against the
		// fixpoint's relation sizes (what most rounds see).
		for _, wl := range workload.JoinWorkloads(*quick) {
			in := engine.MustNew(parser.MustProgram(wl.Src), wl.DB())
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
