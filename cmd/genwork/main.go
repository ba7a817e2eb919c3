// Command genwork emits reproducible experiment workloads as DATALOG¬
// fact files (and DIMACS for SAT instances).
//
// Usage:
//
//	genwork -kind 3sat    -n 12 -seed 7            # D(I) facts for π_SAT + DIMACS comment
//	genwork -kind unique  -n 10 -seed 3            # unique-solution instance
//	genwork -kind graph   -n 16 -p 0.2 -seed 1     # random digraph E facts
//	genwork -kind path|cycle|cycles -n 8           # the paper's Lₙ / Cₙ / Gₙ families
//	genwork -kind program -name pi1|pisat|picol    # the paper's fixed programs
//
// Output goes to stdout; redirect to files for use with cmd/datalog
// and cmd/fixpoint.  Nothing here evaluates a program.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/reductions"
	"repro/internal/workload"
)

func main() {
	var (
		kind  = flag.String("kind", "", "3sat|ksat|unique|pigeonhole|graph|path|cycle|cycles|program")
		n     = flag.Int("n", 10, "size parameter (variables / vertices)")
		m     = flag.Int("m", 0, "secondary size (clauses / cycle copies); 0 = derived")
		k     = flag.Int("k", 3, "clause width for -kind ksat")
		p     = flag.Float64("p", 0.25, "edge probability for -kind graph")
		ratio = flag.Float64("ratio", 4.26, "clause ratio for -kind 3sat")
		seed  = flag.Int64("seed", 1, "random seed")
		name  = flag.String("name", "pi1", "program name for -kind program: pi1|pisat|picol|tc|distance")
	)
	flag.Parse()

	switch *kind {
	case "3sat", "ksat", "unique", "pigeonhole":
		var inst *reductions.SATInstance
		switch *kind {
		case "3sat":
			inst = workload.Random3SAT(*seed, *n, *ratio)
		case "ksat":
			mm := *m
			if mm == 0 {
				mm = 4 * *n
			}
			inst = workload.RandomKSAT(*seed, *n, mm, *k)
		case "unique":
			inst = workload.UniqueSAT(*seed, *n, *m)
		case "pigeonhole":
			holes := *m
			if holes == 0 {
				holes = *n - 1
			}
			inst = workload.Pigeonhole(*n, holes)
		}
		db, err := reductions.SATDatabase(inst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%% %s instance: %d vars, %d clauses (seed %d)\n", *kind, inst.NumVars, len(inst.Clauses), *seed)
		fmt.Printf("%% DIMACS: p cnf %d %d\n", inst.NumVars, len(inst.Clauses))
		for _, c := range inst.Clauses {
			fmt.Printf("%% DIMACS: %v 0\n", trimBrackets(fmt.Sprint(c)))
		}
		fmt.Print(parser.FormatDatabase(db))

	case "graph", "path", "cycle", "cycles":
		var g *graphs.Graph
		switch *kind {
		case "graph":
			g = graphs.Random(rand.New(rand.NewSource(*seed)), *n, *p)
		case "path":
			g = graphs.Path(*n)
		case "cycle":
			g = graphs.Cycle(*n)
		case "cycles":
			copies := *m
			if copies == 0 {
				copies = 3
			}
			g = graphs.DisjointCycles(copies, *n)
		}
		fmt.Printf("%% %s graph: %d vertices, %d edges\n", *kind, g.N(), g.NumEdges())
		fmt.Print(parser.FormatDatabase(g.Database()))

	case "program":
		switch *name {
		case "pi1":
			fmt.Print("t(X) :- E(Y,X), !t(Y).\n")
		case "pisat":
			fmt.Print(reductions.PiSAT().String())
		case "picol":
			fmt.Print(reductions.PiCOL().String())
		case "tc":
			fmt.Print("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\n")
		case "distance":
			fmt.Print(`s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`)
		default:
			fatal(fmt.Errorf("unknown program %q", *name))
		}

	default:
		fmt.Fprintln(os.Stderr, "usage: genwork -kind 3sat|ksat|unique|pigeonhole|graph|path|cycle|cycles|program")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

func trimBrackets(s string) string {
	if len(s) >= 2 && s[0] == '[' {
		return s[1 : len(s)-1]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genwork:", err)
	os.Exit(1)
}
