package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

const tcSrc = `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
`

func TestEvalAllSemanticsOnPositive(t *testing.T) {
	db := parser.MustFacts("e(a,b). e(b,c).")
	prog := parser.MustProgram(`
s(X,Y) :- e(X,Y).
s(X,Y) :- e(X,Z), s(Z,Y).
`)
	var states []string
	for _, sem := range []Semantics{Inflationary, LFP, Stratified, WellFounded} {
		res, err := Eval(prog, db, sem)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if res.State["s"].Len() != 3 {
			t.Errorf("%v: |s| = %d, want 3", sem, res.State["s"].Len())
		}
		states = append(states, res.State.Format(res.Universe))
	}
	for i := 1; i < len(states); i++ {
		if states[i] != states[0] {
			t.Errorf("semantics %d disagrees on a positive program", i)
		}
	}
}

const distSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`

// TestWellFoundedStratifiableAsStrata pins how the batch path computes
// a stratifiable program's well-founded model: as strata, in the
// stratified evaluation's rounds, total and with no alternation — and
// equal to the model the alternating fixpoint computes, also where a
// low stratum ranges over the universe and a constant first appears in
// a higher one.  An unstratifiable program still alternates.
func TestWellFoundedStratifiableAsStrata(t *testing.T) {
	type tc struct {
		name, src string
		db        *relation.Database
	}
	cases := []tc{
		{"distance/path6", distSrc, graphs.Path(6).Database()},
		{"constant/higher-stratum", "t(X) :- !E(X,X).\nu(X) :- E(X,Y), !t(c).", parser.MustFacts("E(a,b).")},
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randProgram(rng, 2)
		cases = append(cases, tc{fmt.Sprintf("random/seed%d", seed), src, randDB(rng, 3+rng.Intn(3))})
	}
	for _, c := range cases {
		prog := parser.MustProgram(c.src)
		got, err := Eval(prog, c.db, WellFounded)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		strat, err := semantics.Stratified(prog, c.db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		work := c.db.Clone()
		alt := semantics.WellFounded(engine.MustNew(prog, work))
		if !got.WF.Total() || got.WF.Outer != 0 || got.Stats.Rounds != strat.Stats.Rounds {
			t.Errorf("%s: total=%v outer=%d rounds=%d, want total, outer 0 and the stratified %d rounds\nprogram:\n%s",
				c.name, got.WF.Total(), got.WF.Outer, got.Stats.Rounds, strat.Stats.Rounds, c.src)
		}
		if g, w := got.State.Format(got.Universe), alt.True.Format(work.Universe()); g != w {
			t.Errorf("%s: strata give\n%sthe alternating fixpoint\n%sprogram:\n%s", c.name, g, w, c.src)
		}
	}

	win, err := Eval(parser.MustProgram("win(X) :- E(X,Y), !win(Y)."), graphs.Cycle(4).Database(), WellFounded)
	if err != nil {
		t.Fatal(err)
	}
	if n := win.WF.Undefined().Total(); n != 4 || win.WF.Outer < 1 {
		t.Errorf("win-move on C4: %d undefined atoms in %d outer iterations, want 4 in at least 1", n, win.WF.Outer)
	}
}

func TestEvalDoesNotMutateDB(t *testing.T) {
	db := parser.MustFacts("e(a,b).")
	before := db.Universe().Size()
	prog := parser.MustProgram("p(fresh_const) :- e(X,Y).")
	if _, err := Eval(prog, db, Inflationary); err != nil {
		t.Fatal(err)
	}
	if db.Universe().Size() != before {
		t.Error("Eval interned program constants into the caller's database")
	}
}

func TestEvalErrors(t *testing.T) {
	db := parser.MustFacts("e(a,b).")
	general := parser.MustProgram("t(X) :- e(Y,X), !t(Y).")
	if _, err := Eval(general, db, LFP); err == nil {
		t.Error("LFP accepted a general program")
	}
	if _, err := Eval(general, db, Stratified); err == nil {
		t.Error("Stratified accepted an unstratifiable program")
	}
	if _, err := Eval(general, db, Inflationary); err != nil {
		t.Errorf("Inflationary rejected a program: %v", err)
	}
	if _, err := Eval(general, db, WellFounded); err != nil {
		t.Errorf("WellFounded rejected a program: %v", err)
	}
}

func TestAnalyzePi1(t *testing.T) {
	db := parser.MustFacts("e(v1,v2). e(v2,v3). e(v3,v4). e(v4,v1).") // C4
	prog := parser.MustProgram("t(X) :- e(Y,X), !t(Y).")
	rep, err := Analyze(prog, db, AnalyzeOptions{WithLeast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exists || !rep.CountExact || rep.Count != 2 || rep.Unique {
		t.Errorf("report = %+v", rep)
	}
	if rep.Least == nil || rep.Least.Exists {
		t.Error("C4 should have no least fixpoint")
	}
	if rep.Class.String() != "general" {
		t.Errorf("class = %v", rep.Class)
	}
}

func TestAnalyzeDoesNotMutateDB(t *testing.T) {
	db := parser.MustFacts("e(a,b).")
	before := db.String()
	prog := parser.MustProgram(tcSrc)
	if _, err := Analyze(prog, db, AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if db.String() != before {
		t.Error("Analyze mutated the database")
	}
}

func TestParseSemantics(t *testing.T) {
	for name, want := range map[string]Semantics{
		"inflationary": Inflationary, "inf": Inflationary,
		"lfp": LFP, "least": LFP,
		"stratified": Stratified, "strat": Stratified,
		"wellfounded": WellFounded, "wf": WellFounded,
	} {
		got, err := ParseSemantics(name)
		if err != nil || got != want {
			t.Errorf("ParseSemantics(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSemantics("bogus"); err == nil {
		t.Error("bogus semantics accepted")
	}
	for _, s := range []Semantics{Inflationary, LFP, Stratified, WellFounded} {
		if s.String() == "unknown" {
			t.Errorf("missing name for %d", s)
		}
	}
}
