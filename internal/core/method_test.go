package core_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/semantics"
)

// TestMethodMatrix pins the semantics × program-class rule: for each of
// the four semantics on a program of each of the four classes, the
// method core.MethodFor returns or the error it gives, and that
// core.Eval, incr.New, core.QueryStrategy and core.Query accept exactly
// the pairs the rule admits — Query only those computed by strata —
// with the maintainer updating by the machinery of its method.
func TestMethodMatrix(t *testing.T) {
	classes := []struct {
		class ast.Class
		src   string
	}{
		{ast.ClassPositive, "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."},
		{ast.ClassSemipositive, "s(X,Y) :- E(X,Y), !F(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."},
		{ast.ClassStratified, "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\nn(X,Y) :- E(X,Y), !s(Y,X)."},
		{ast.ClassGeneral, "s(X,Y) :- E(X,Y), !s(Y,X)."},
	}
	// A method per class, or the start of the error the semantics
	// gives a program of that class.
	const (
		lfpErr   = "error: least fixpoint semantics requires a positive or semipositive program"
		stratErr = "error: program is not stratifiable"
	)
	want := map[core.Semantics][4]string{
		core.LFP:          {"strata", "strata", lfpErr, lfpErr},
		core.Inflationary: {"strata", "strata", "stages", "stages"},
		core.Stratified:   {"strata", "strata", "strata", stratErr},
		core.WellFounded:  {"strata", "strata", "strata", "alternation"},
	}
	methods := map[core.Method]struct {
		name, maintainedBy string // the incr.UpdateStats.Strategy it updates by
	}{
		core.Stages:      {"stages", "recompute"},
		core.Strata:      {"strata", "strata"},
		core.Alternation: {"alternation", "alternation"},
	}
	db := parser.MustFacts("E(a,b). E(b,c). E(c,a). F(a,b).")
	q := magic.MustParseQuery("s(a, ?)")
	for _, sem := range []core.Semantics{core.LFP, core.Inflationary, core.Stratified, core.WellFounded} {
		for i, c := range classes {
			name := sem.String() + "/" + c.class.String()
			prog := parser.MustProgram(c.src)
			if got := prog.Classify(); got != c.class {
				t.Fatalf("%s: program classified %v", name, got)
			}

			m, err := core.MethodFor(sem, prog)
			got := methods[m].name
			if err != nil {
				got = "error: " + err.Error()
			}
			if !strings.HasPrefix(got, want[sem][i]) {
				t.Errorf("%s: MethodFor gives %q, want %q", name, got, want[sem][i])
				continue
			}
			admitted := err == nil

			if _, err := core.Eval(prog, db, sem); (err == nil) != admitted {
				t.Errorf("%s: Eval error %v, want admitted=%v", name, err, admitted)
			}
			maint, err := incr.New(prog, db, sem)
			if (err == nil) != admitted {
				t.Errorf("%s: incr.New error %v, want admitted=%v", name, err, admitted)
			}
			if maint != nil {
				stats, err := maint.Update([]incr.Fact{{Pred: "E", Args: []string{"c", "b"}}}, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stats.Strategy != methods[m].maintainedBy {
					t.Errorf("%s: maintained by %q, want %q", name, stats.Strategy, methods[m].maintainedBy)
				}
			}

			queryable := admitted && m == core.Strata
			stratified, ok := core.QueryStrategy(sem, c.class)
			if ok != queryable || stratified != ok {
				t.Errorf("%s: QueryStrategy = (stratified %v, ok %v), want ok=%v by %s", name, stratified, ok, queryable, methods[m].name)
			}
			res, err := core.Query(prog, db, q, sem)
			if (err == nil) != queryable {
				t.Errorf("%s: Query error %v, want queryable=%v", name, err, queryable)
				continue
			}
			if res == nil {
				continue
			}
			full, err := core.QueryFull(prog, db, q, sem)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if g, w := res.Tuples.Format(res.Universe), full.Tuples.Format(full.Universe); g != w {
				t.Errorf("%s: magic answers %s, full %s", name, g, w)
			}
		}
	}
	if _, err := core.MethodFor(core.Semantics(9), parser.MustProgram(classes[0].src)); err == nil {
		t.Error("MethodFor accepted an unknown semantics")
	}
}

// TestQueryStatsPinned pins a point query's effort on a semipositive
// program under each semantics that answers it: every one evaluates
// the same rewrite as one stratum, and the pinned statistics are those
// the induction over the whole rewrite gave under LFP and inflationary
// semantics before strata evaluated every rewrite.
func TestQueryStatsPinned(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y), !F(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := graphs.Path(8).Database()
	if err := db.AddFact("F", "v1", "v2"); err != nil {
		t.Fatal(err)
	}
	want := semantics.Stats{Rounds: 15, Tuples: 34, MaxDeltaTuples: 5}
	for _, sem := range []core.Semantics{core.LFP, core.Inflationary, core.Stratified, core.WellFounded} {
		res, err := core.Query(prog, db, magic.MustParseQuery("s(v0, ?)"), sem)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if res.Tuples.Len() != 6 || res.Stats != want {
			t.Errorf("%v: %d answers, stats %+v; want 6 answers, stats %+v", sem, res.Tuples.Len(), res.Stats, want)
		}
	}
}
