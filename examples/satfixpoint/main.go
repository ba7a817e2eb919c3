// satfixpoint walks Example 1 / Theorems 1–2 end to end: a CNF
// instance I becomes the database D(I) over (V, P, N); the fixed
// program π_SAT has a fixpoint on D(I) exactly when I is satisfiable;
// fixpoints are in bijection with satisfying assignments; and a unique
// satisfying assignment means a unique fixpoint (the US-complete
// problem of Theorem 2).
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/reductions"
	"repro/internal/workload"
)

func main() {
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3) ∧ (¬x2 ∨ ¬x3): satisfiable.
	inst := &reductions.SATInstance{
		NumVars: 3,
		Clauses: [][]int{{1, 2}, {-1, 3}, {-2, -3}},
	}
	fmt.Println("instance: (x1∨x2) ∧ (¬x1∨x3) ∧ (¬x2∨¬x3)")

	db, err := reductions.SATDatabase(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nD(I) over the vocabulary (V, P, N):")
	fmt.Print(db)

	fmt.Println("\nπ_SAT (the paper's fixed program):")
	fmt.Print(reductions.PiSAT())

	in := engine.MustNew(reductions.PiSAT(), db)
	has, st, err := fixpoint.Exists(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixpoint exists: %v (instance satisfiable: %v)\n", has, inst.CountModels() > 0)
	if has {
		assign := reductions.AssignmentFromFixpoint(inst, db, st)
		fmt.Printf("assignment read from the fixpoint's S relation: %v\n", assign[1:])
		fmt.Printf("satisfies the instance: %v\n", inst.Eval(assign))
	}

	count, _, err := fixpoint.Count(in, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixpoints: %d, satisfying assignments: %d (Theorem 2's bijection)\n",
		count, inst.CountModels())

	// A crafted unique-solution instance: unique fixpoint.
	uinst := workload.UniqueSAT(7, 6, 3)
	udb, err := reductions.SATDatabase(uinst)
	if err != nil {
		log.Fatal(err)
	}
	uin := engine.MustNew(reductions.PiSAT(), udb)
	unique, _, err := fixpoint.Unique(uin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrafted unique-SAT instance (%d vars): unique fixpoint = %v\n",
		uinst.NumVars, unique)

	// And an unsatisfiable instance: no fixpoint at all.
	bad := &reductions.SATInstance{NumVars: 1, Clauses: [][]int{{1}, {-1}}}
	bdb, _ := reductions.SATDatabase(bad)
	bin := engine.MustNew(reductions.PiSAT(), bdb)
	bhas, _, err := fixpoint.Exists(bin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nx ∧ ¬x: fixpoint exists = %v (no fixpoint semantics can answer here)\n", bhas)
}
