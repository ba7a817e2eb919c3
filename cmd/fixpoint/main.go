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

func main() {
	program := flag.String("program", "", "path to the DATALOG¬ program")
	facts := flag.String("facts", "", "path to the fact file")
	countCap := flag.Int("count", 0, "cap on fixpoint counting (0 = exact)")
	least := flag.Bool("least", false, "run the Theorem 3 least-fixpoint analysis")
	enumerate := flag.Int("enumerate", 0, "print up to N fixpoints")
	stable := flag.Bool("stable", false, "also enumerate stable models (answer sets)")
	flag.Parse()
	if *program == "" || *facts == "" {
		fmt.Fprintln(os.Stderr, "usage: fixpoint -program FILE -facts FILE [-count N] [-least] [-enumerate N]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	prog, err := parser.ProgramFile(*program)
	if err != nil {
		fatal(err)
	}
	db, err := parser.FactsFile(*facts)
	if err != nil {
		fatal(err)
	}
	in, err := engine.New(prog, db)
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
	count, exact, err := fixpoint.Count(in, opt, *countCap)
	if err != nil {
		fatal(err)
	}
	suffix := ""
	if !exact {
		suffix = "+ (limit reached)"
	}
	fmt.Printf("count:    %d%s\n", count, suffix)
	fmt.Printf("unique:   %v\n", exact && count == 1)

	if *least {
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

	if *stable {
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

	if has && *enumerate > 0 {
		fmt.Printf("first %d fixpoint(s):\n", *enumerate)
		i := 0
		_, _, err := fixpoint.Enumerate(in, opt, *enumerate, func(s engine.State) bool {
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
