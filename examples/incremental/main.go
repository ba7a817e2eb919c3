// Incremental maintenance walkthrough: keep a program's materialized
// result exact while facts arrive and depart, without recomputing the
// fixpoint — the machinery behind the cmd/serve daemon.
//
// Three stops:
//  1. transitive closure under single edge inserts/deletes
//     (DRed over strata),
//  2. a published snapshot staying stable while the state moves on
//     (the daemon's concurrent-reader contract),
//  3. a general inflationary program, recomputed on every update.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// --- 1. Transitive closure under updates.
	tc, err := repro.ParseProgram(`
s(X,Y) :- e(X,Y).
s(X,Y) :- e(X,Z), s(Z,Y).
`)
	if err != nil {
		log.Fatal(err)
	}
	db, err := repro.ParseFacts("e(a,b). e(b,c). e(c,d).")
	if err != nil {
		log.Fatal(err)
	}
	m, err := repro.Maintain(tc, db, repro.SemanticsLFP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial closure of the path a→b→c→d:")
	fmt.Println("  s =", m.State()["s"].Format(m.Universe()))

	// Close the cycle: one inserted edge, maintained incrementally.
	stats, err := m.Update([]repro.Fact{{Pred: "e", Args: []string{"d", "a"}}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninsert e(d,a): strategy=%s, +%d IDB tuples in %v\n",
		stats.Strategy, stats.InsertedIDB, stats.Duration)
	fmt.Println("  s =", m.State()["s"].Format(m.Universe()))

	// Delete an edge: DRed overdeletes everything the edge supported,
	// then rederives what survives via other paths.
	stats, err = m.Update(nil, []repro.Fact{{Pred: "e", Args: []string{"b", "c"}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndelete e(b,c): strategy=%s, -%d IDB tuples\n", stats.Strategy, stats.DeletedIDB)
	fmt.Println("  s =", m.State()["s"].Format(m.Universe()))

	// --- 2. Published snapshots are immutable points in time.
	snap := m.Snapshot()
	if _, err := m.Update([]repro.Fact{{Pred: "e", Args: []string{"b", "c"}}}, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot taken at gen %d still has |s| = %d; live state has |s| = %d\n",
		snap.Gen, snap.Relation("s").Len(), m.State()["s"].Len())

	// --- 3. General inflationary program: recompute.  π₁-style win-move
	// has recursion through negation, so the order in which the stage
	// sequence derives tuples IS the semantics; no DRed pass keeps it,
	// and the maintainer re-evaluates the sequence over the updated EDB.
	win, err := repro.ParseProgram("win(X) :- e(X,Y), !win(Y).")
	if err != nil {
		log.Fatal(err)
	}
	gdb, err := repro.ParseFacts("e(a,b). e(b,c). e(c,d). e(x,y).")
	if err != nil {
		log.Fatal(err)
	}
	wm, err := repro.Maintain(win, gdb, repro.SemanticsInflationary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwin-move on a→b→c→d (plus x→y):")
	fmt.Println("  win =", wm.State()["win"].Format(wm.Universe()))
	stats, err = wm.Update([]repro.Fact{{Pred: "e", Args: []string{"d", "x"}}}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("insert e(d,x): strategy=%s, +%d -%d IDB tuples\n",
		stats.Strategy, stats.InsertedIDB, stats.DeletedIDB)
	fmt.Println("  win =", wm.State()["win"].Format(wm.Universe()))
}
