// Command fixpoint analyzes the fixpoint structure of (π, D): the
// decision problems of Section 3 of the paper on concrete inputs.
//
// Usage:
//
//	fixpoint -program pi1.dl -facts cycle4.dl [-count 0] [-least] [-stable] [-enumerate 4]
//
// Prints existence (Theorem 1's NP problem), the number of fixpoints,
// uniqueness (Theorem 2's US problem), optionally the least-fixpoint
// criterion of Theorem 3, the number of stable models, and the first
// fixpoints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/parser"
)

var errUsage = errors.New("usage: fixpoint -program FILE -facts FILE [-count N] [-least] [-stable] [-enumerate N]")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "fixpoint:", err)
		os.Exit(1)
	}
}

// run analyzes the program and facts the flags in args name, writing
// the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fixpoint", flag.ExitOnError)
	program := fs.String("program", "", "path to the DATALOG¬ program")
	facts := fs.String("facts", "", "path to the fact file")
	count := fs.Int("count", 0, "cap on fixpoint counting (0 = exact)")
	least := fs.Bool("least", false, "run the Theorem 3 least-fixpoint analysis")
	enumerate := fs.Int("enumerate", 0, "print up to N fixpoints")
	stable := fs.Bool("stable", false, "also enumerate stable models (answer sets)")
	fs.Parse(args)
	if *program == "" || *facts == "" {
		fmt.Fprintln(fs.Output(), errUsage)
		fs.PrintDefaults()
		return errUsage
	}

	prog, err := parser.ProgramFile(*program)
	if err != nil {
		return err
	}
	db, err := parser.FactsFile(*facts)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(prog, db, core.AnalyzeOptions{CountLimit: *count, WithLeast: *least})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "class:    %v\n", rep.Class)
	fmt.Fprintf(w, "exists:   %v\n", rep.Exists)
	fmt.Fprintf(w, "count:    %d%s\n", rep.Count, limitSuffix(rep.CountExact))
	fmt.Fprintf(w, "unique:   %v\n", rep.Unique)
	if l := rep.Least; l != nil {
		fmt.Fprintf(w, "least:    %v\n", l.Exists)
		if l.Exists {
			fmt.Fprintf(w, "least fixpoint:\n%s", indent(l.State.Format(rep.Universe)))
		} else if l.NumFixpoints > 0 {
			fmt.Fprintf(w, "intersection of all %d fixpoints (not itself a fixpoint):\n%s",
				l.NumFixpoints, indent(l.Intersection.Format(rep.Universe)))
		}
	}

	// Stable models and the enumeration need an instance of their own.
	enum := rep.Exists && *enumerate > 0
	var in *engine.Instance
	if *stable || enum {
		if in, err = engine.New(prog, db); err != nil {
			return err
		}
	}
	if *stable {
		n, complete, err := fixpoint.StableModels(in, 0, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stable:   %d%s\n", n, limitSuffix(complete))
	}
	if enum {
		fmt.Fprintf(w, "first %d fixpoint(s):\n", *enumerate)
		i := 0
		_, _, err := fixpoint.Enumerate(in, *enumerate, func(s engine.State) bool {
			i++
			fmt.Fprintf(w, "--- fixpoint %d ---\n%s", i, indent(s.Format(in.Universe())))
			return true
		})
		return err
	}
	if rep.Exists {
		fmt.Fprintf(w, "example fixpoint:\n%s", indent(rep.Example.Format(rep.Universe)))
	}
	return nil
}

func limitSuffix(exact bool) string {
	if exact {
		return ""
	}
	return "+ (limit reached)"
}

// indent prefixes every line of s with two spaces.
func indent(s string) string {
	if s == "" {
		return ""
	}
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}
