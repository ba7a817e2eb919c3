// Command fixpoint analyzes the fixpoint structure of (π, D): the
// decision problems of Section 3 of the paper on concrete inputs.
//
// Usage:
//
//	fixpoint -program pi1.dl -facts cycle4.dl [-count 0] [-least] [-enumerate 4]
//
// Prints existence (Theorem 1's NP problem), the number of fixpoints,
// uniqueness (Theorem 2's US problem), optionally the least-fixpoint
// criterion of Theorem 3, and optionally the first fixpoints.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/parser"
)

// options collects the fixpoint flags.
type options struct {
	program, facts      string
	count, enumerate    int
	least, stable       bool
	workers, partitions int
}

// newFlags defines the flag set over o.  Split from main so tests can
// exercise the definitions.
func newFlags(name string, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&o.program, "program", "", "path to the DATALOG¬ program")
	fs.StringVar(&o.facts, "facts", "", "path to the fact file")
	fs.IntVar(&o.count, "count", 0, "cap on fixpoint counting (0 = exact)")
	fs.BoolVar(&o.least, "least", false, "run the Theorem 3 least-fixpoint analysis")
	fs.IntVar(&o.enumerate, "enumerate", 0, "print up to N fixpoints")
	fs.BoolVar(&o.stable, "stable", false, "also enumerate stable models (answer sets)")
	fs.IntVar(&o.workers, "workers", 0, "Θ evaluation worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.partitions, "partitions", 1, "K-way hash-partitioned evaluation with delta exchange (1 = unpartitioned)")
	return fs
}

// engineOptions is the engine configuration of the analysed instance.
func (o *options) engineOptions() engine.Options {
	return engine.Options{Workers: o.workers, Partitions: o.partitions}
}

func main() {
	var o options
	fs := newFlags("fixpoint", &o)
	fs.Parse(os.Args[1:])
	if o.program == "" || o.facts == "" {
		fmt.Fprintln(os.Stderr, "usage: fixpoint -program FILE -facts FILE [-count N] [-least] [-enumerate N]")
		fs.PrintDefaults()
		os.Exit(2)
	}

	prog, err := parser.ProgramFile(o.program)
	if err != nil {
		fatal(err)
	}
	db, err := parser.FactsFile(o.facts)
	if err != nil {
		fatal(err)
	}
	in, err := engine.NewWith(prog, db, o.engineOptions())
	if err != nil {
		fatal(err)
	}
	opt := fixpoint.Options{}

	has, example, err := fixpoint.Exists(in, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("class:    %v\n", prog.Classify())
	fmt.Printf("exists:   %v\n", has)
	count, exact, err := fixpoint.Count(in, opt, o.count)
	if err != nil {
		fatal(err)
	}
	suffix := ""
	if !exact {
		suffix = "+ (limit reached)"
	}
	fmt.Printf("count:    %d%s\n", count, suffix)
	fmt.Printf("unique:   %v\n", exact && count == 1)

	if o.least {
		res, err := fixpoint.Least(in, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("least:    %v\n", res.Exists)
		if res.Exists {
			fmt.Printf("least fixpoint:\n%s", indent(res.State.Format(in.Universe())))
		} else if res.NumFixpoints > 0 {
			fmt.Printf("intersection of all %d fixpoints (not itself a fixpoint):\n%s",
				res.NumFixpoints, indent(res.Intersection.Format(in.Universe())))
		}
	}

	if o.stable {
		n, complete, err := fixpoint.StableModels(in, opt, 0, nil)
		if err != nil {
			fatal(err)
		}
		suffix := ""
		if !complete {
			suffix = "+ (limit reached)"
		}
		fmt.Printf("stable:   %d%s\n", n, suffix)
	}

	if has && o.enumerate > 0 {
		fmt.Printf("first %d fixpoint(s):\n", o.enumerate)
		i := 0
		_, _, err := fixpoint.Enumerate(in, opt, o.enumerate, func(s engine.State) bool {
			i++
			fmt.Printf("--- fixpoint %d ---\n%s", i, indent(s.Format(in.Universe())))
			return true
		})
		if err != nil {
			fatal(err)
		}
	} else if has {
		fmt.Printf("example fixpoint:\n%s", indent(example.Format(in.Universe())))
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "  " + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += "  " + s[start:] + "\n"
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fixpoint:", err)
	os.Exit(1)
}
