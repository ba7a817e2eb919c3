package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/magic"
)

func TestFacadeQuickstart(t *testing.T) {
	prog, err := repro.ParseProgram(`
s(X,Y) :- e(X,Y).
s(X,Y) :- e(X,Z), s(Z,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := repro.ParseFacts("e(a,b). e(b,c).")
	if err != nil {
		t.Fatal(err)
	}
	for name, eval := range map[string]func(*repro.Program, *repro.Database) (*repro.Result, error){
		"inflationary": repro.Inflationary,
		"lfp":          repro.LeastFixpoint,
		"stratified":   repro.Stratified,
		"wellfounded":  repro.WellFounded,
	} {
		res, err := eval(prog, db)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.State["s"].Len() != 3 {
			t.Errorf("%s: |s| = %d, want 3", name, res.State["s"].Len())
		}
	}
}

func TestFacadeAnalyze(t *testing.T) {
	prog, _ := repro.ParseProgram("t(X) :- e(Y,X), !t(Y).")
	db, _ := repro.ParseFacts("e(v1,v2). e(v2,v3). e(v3,v1).") // odd cycle
	rep, err := repro.Analyze(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exists || rep.Count != 0 {
		t.Errorf("odd cycle should have no fixpoint: %+v", rep)
	}
}

func TestFacadeQuery(t *testing.T) {
	prog, err := repro.ParseProgram(`
s(X,Y) :- e(X,Y).
s(X,Y) :- s(X,Z), e(Z,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := repro.ParseFacts("e(a,b). e(b,c). e(x,y).")
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []repro.Semantics{repro.SemanticsLFP, repro.SemanticsStratified, repro.SemanticsInflationary, repro.SemanticsWellFounded} {
		res, err := repro.Query(prog, db, "s(a, ?)", sem)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if res.Tuples.Len() != 2 { // a reaches b and c, not x/y
			t.Errorf("%v: |s(a,?)| = %d, want 2", sem, res.Tuples.Len())
		}
	}
	if _, err := repro.Query(prog, db, "s(a", repro.SemanticsLFP); err == nil {
		t.Error("malformed query accepted")
	}
	win, _ := repro.ParseProgram("w(X) :- e(X,Y), !w(Y).")
	if _, err := repro.Query(win, db, "w(?)", repro.SemanticsInflationary); err == nil {
		t.Error("non-coinciding inflationary query accepted")
	}
	if _, err := repro.Query(win, db, "w(?)", repro.SemanticsWellFounded); err == nil {
		t.Error("well-founded query on an unstratifiable program accepted")
	}
}

// TestFacadeEntryPointsAgree holds the facade's entry points together:
// all four semantics through EvalWith, Query against the materialized
// answer, and maintenance, same results.
func TestFacadeEntryPointsAgree(t *testing.T) {
	prog, err := repro.ParseProgram(`
s(X,Y) :- e(X,Y).
s(X,Y) :- e(X,Z), s(Z,Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := repro.ParseFacts("e(a,b). e(b,c). e(c,d).")
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []repro.Semantics{
		repro.SemanticsInflationary, repro.SemanticsLFP,
		repro.SemanticsStratified, repro.SemanticsWellFounded,
	} {
		res, err := repro.EvalWith(prog, db, sem, repro.Options{})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if res.State["s"].Len() != 6 {
			t.Errorf("%v: |s| = %d, want 6", sem, res.State["s"].Len())
		}
	}

	// Query answers demand-driven; core.QueryFull, the materialize and
	// filter oracle, answers the same.
	res, err := repro.Query(prog, db, "s(a, ?)", repro.SemanticsLFP)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.QueryFull(prog, db, magic.MustParseQuery("s(a, ?)"), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.Len() != 3 || !res.Tuples.Equal(full.Tuples) {
		t.Errorf("|s(a,?)| = %d, materialized %d, want 3 and equal", res.Tuples.Len(), full.Tuples.Len())
	}

	m, err := repro.Maintain(prog, db, repro.SemanticsLFP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update([]repro.Fact{{Pred: "e", Args: []string{"d", "a"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Relation("s").Len(); got != 16 { // cycle closed: full 4x4 TC
		t.Errorf("|s| after closing the cycle = %d, want 16", got)
	}
}

func ExampleInflationary() {
	prog, _ := repro.ParseProgram("t(X) :- e(Y,X), !t(Y).")
	db, _ := repro.ParseFacts("e(a,b). e(b,c).")
	res, _ := repro.Inflationary(prog, db)
	fmt.Println(res.State["t"].Format(res.Universe))
	// Output: {(b), (c)}
}
