package semantics

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

// Differential tests of the evaluators against internal/wforacle, a
// solver over maps of ground atoms that shares no code with them: on
// seeded random programs and databases the well-founded evaluator must
// agree with the oracle in all three truth values, the inflationary one
// in every stage and the round count, and where the well-founded model
// has to be total — stratifiable programs, negation-free ones — it must
// also be the stratified, respectively the least-fixpoint, model.  Rules
// come from randRule, so negated literals and comparisons may hold
// variables no positive literal binds and enumerate the domain.

// oracleInput is the oracle's input for db: its universe's constants as
// the domain, its relations as the facts.  Evaluate on db itself (not a
// clone) first when the program has constants, so the universe holds
// them.
func oracleInput(prog *ast.Program, db *relation.Database) ([]string, map[string][][]string) {
	return wforacle.Input(prog, db.Universe(), dbRels(db))
}

func dbRels(db *relation.Database) map[string]*relation.Relation {
	rels := map[string]*relation.Relation{}
	for _, name := range db.Names() {
		rels[name] = db.Relation(name)
	}
	return rels
}

// hostProcs is GOMAXPROCS as the test binary started, before any test
// set it.
var hostProcs = runtime.GOMAXPROCS(0)

// setProcs sets GOMAXPROCS, the width of the engine's worker pool, to
// n until the test ends.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// randGeneralProgram draws two or three rules per IDB predicate, each
// with one or two negated IDB literals — the heads' own included, so
// nothing stratifies it — next to randRule's positive literals,
// constants and comparisons.
func randGeneralProgram(rng *rand.Rand) string {
	edb := []diffPred{{"E", 2, 0}, {"V", 1, 0}}
	idb := []diffPred{{"p", 1, 1}, {"q", 1 + rng.Intn(2), 1}, {"r", 2, 1}}
	var rules []string
	for _, h := range idb {
		for n := 2 + rng.Intn(2); n > 0; n-- {
			rule := randRule(rng, h, append(edb, idb[rng.Intn(len(idb))]), nil)
			for k := 1 + rng.Intn(2); k > 0; k-- {
				neg := idb[rng.Intn(len(idb))]
				args := make([]string, neg.arity)
				for i := range args {
					args[i] = diffVars[rng.Intn(len(diffVars))]
				}
				rule = strings.TrimSuffix(rule, ".") + ", !" + neg.name + "(" + strings.Join(args, ",") + ")."
			}
			rules = append(rules, rule)
		}
	}
	return strings.Join(rules, "\n")
}

// subsetOf reports whether every relation of s is contained in the
// corresponding relation of o.
func subsetOf(s, o engine.State) bool {
	for k, r := range s {
		if or, ok := o[k]; !ok || !r.SubsetOf(or) {
			return false
		}
	}
	return true
}

// checkOracle evaluates src on db under the well-founded semantics and
// compares with the oracle; it returns the result for further checks.
// On the way it checks, stage by stage, the nesting the evaluator's
// stopping test rests on — A₀ ⊆ A₂ ⊆ … and A₁ ⊇ A₃ ⊇ … — and that True
// and Possible are the last two stages.  It then evaluates src under
// the inflationary semantics and compares every stage the log observes,
// the state and Stats.Rounds with the oracle's cumulative Θ iteration.
func checkOracle(t *testing.T, src string, db *relation.Database) *WFResult {
	t.Helper()
	prog := parser.MustProgram(src)
	in := engine.MustNew(prog, db)
	stages := []engine.State{in.NewState()}
	res := WellFoundedLog(in, func(s engine.State) {
		i := len(stages)
		if i >= 3 && i%2 == 1 && !subsetOf(s, stages[i-2]) {
			t.Fatalf("odd stage A%d is not within A%d\nprogram:\n%s", i, i-2, src)
		}
		if i%2 == 0 && !subsetOf(stages[i-2], s) {
			t.Fatalf("even stage A%d does not contain A%d\nprogram:\n%s", i, i-2, src)
		}
		stages = append(stages, s)
	})
	if n := len(stages) - 1; n != 2*res.Outer || !res.True.Equal(stages[n]) || !res.True.Equal(stages[n-2]) || !res.Possible.Equal(stages[n-1]) {
		t.Fatalf("%d stages in %d outer iterations: True is not A%d = A%d, or Possible is not A%d\nprogram:\n%s", n, res.Outer, n, n-2, n-1, src)
	}
	if d := wforacle.Compare(prog, db.Universe(), dbRels(db), res.True, res.Possible); d != "" {
		t.Fatalf("well-founded model differs from the oracle's: %s\nprogram:\n%s\ndatabase:\n%s", d, src, db)
	}

	domain, facts := oracleInput(prog, db)
	want := wforacle.Inflationary(prog, domain, facts)
	var got []map[string]bool
	inf := lfpLoopLog(engine.MustNew(prog, db), nil, func(s engine.State) {
		got = append(got, wforacle.Atoms(db.Universe(), s))
	})
	if len(got) != len(want) {
		t.Fatalf("inflationary log has %d stages, the oracle %d\nprogram:\n%s\ndatabase:\n%s", len(got), len(want), src, db)
	}
	for i := range want {
		if d := wforacle.Diff(fmt.Sprintf("in S%d", i+1), got[i], want[i]); d != "" {
			t.Fatalf("inflationary stage S%d differs from the oracle's: %s\nprogram:\n%s\ndatabase:\n%s", i+1, d, src, db)
		}
	}
	if d := wforacle.Diff("inflationary", wforacle.Atoms(db.Universe(), inf.State), want[len(want)-1]); d != "" {
		t.Fatalf("inflationary model differs from the oracle's: %s\nprogram:\n%s\ndatabase:\n%s", d, src, db)
	}
	rounds := len(want) + 1
	if len(want[0]) == 0 {
		rounds = 1
	}
	if inf.Stats.Rounds != rounds {
		t.Fatalf("inflationary evaluation took %d rounds, the oracle's iteration %d\nprogram:\n%s\ndatabase:\n%s", inf.Stats.Rounds, rounds, src, db)
	}
	return res
}

func TestWellFoundedMatchesOracle(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	undefined := 0
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src, db := randGeneralProgram(rng), randQueryDB(rng, 3+rng.Intn(3))
		if !checkOracle(t, src, db).Total() {
			undefined++
		}
	}
	t.Logf("%d of %d random programs have undefined atoms", undefined, trials)
	if undefined < trials/10 {
		t.Errorf("only %d of %d random programs have undefined atoms: the generator does not reach the third truth value", undefined, trials)
	}
	// Win-move, where the oracle's answer is also known by hand: on a
	// path the positions alternate, on an even cycle nothing is decided.
	for _, tc := range []struct {
		db               *relation.Database
		isTrue, possible int
	}{{pathDB(5), 2, 2}, {parser.MustFacts("E(a,b). E(b,a). E(c,a)."), 0, 3}} {
		res := checkOracle(t, "win(X) :- E(X,Y), !win(Y).", tc.db)
		if got, poss := res.True.Total(), res.Possible.Total(); got != tc.isTrue || poss != tc.possible {
			t.Errorf("win-move on\n%s: %d true and %d possible, want %d and %d", tc.db, got, poss, tc.isTrue, tc.possible)
		}
	}
}

func TestWellFoundedTotalWhereItMustBe(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		db := randQueryDB(rng, 3+rng.Intn(3))

		// Stratifiable, with IDB negation across two layers.
		src, _ := randQueryProgram(rng, 2)
		res := checkOracle(t, src, db)
		strat, err := Stratified(parser.MustProgram(src), db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Total() || res.True.Format(db.Universe()) != strat.State.Format(strat.Universe) {
			t.Fatalf("seed %d: on a stratifiable program the well-founded model is not the stratified one\nprogram:\n%s\nwell-founded true:\n%s\npossible:\n%s\nstratified:\n%s",
				seed, src, res.True.Format(db.Universe()), res.Possible.Format(db.Universe()), strat.State.Format(strat.Universe))
		}

		// Negation-free: positive literals only, over every predicate.
		preds := []diffPred{{"E", 2, 0}, {"V", 1, 0}, {"p", 1, 1}, {"q", 2, 1}}
		var rules []string
		for _, h := range preds[2:] {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				rules = append(rules, randRule(rng, h, preds, nil))
			}
		}
		src = strings.Join(rules, "\n")
		res = checkOracle(t, src, db)
		lfp, err := LeastFixpoint(engine.MustNew(parser.MustProgram(src), db))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Total() || !res.True.Equal(lfp.State) {
			t.Fatalf("seed %d: on a negation-free program the well-founded model is not the least fixpoint\nprogram:\n%s\nwell-founded:\n%s\nleast fixpoint:\n%s",
				seed, src, res.True.Format(db.Universe()), lfp.State.Format(db.Universe()))
		}
	}

	// The lower stratum enumerates the universe, and the constant c
	// first appears in the higher one: every stratum ranges over it.
	src := "t(X) :- !E(X,X).\nu(X) :- E(X,Y), !t(c)."
	db := parser.MustFacts("E(a,b).")
	strat, err := Stratified(parser.MustProgram(src), db)
	if err != nil {
		t.Fatal(err)
	}
	work := db.Clone()
	res := checkOracle(t, src, work)
	if got, want := strat.State.Format(strat.Universe), res.True.Format(work.Universe()); got != want {
		t.Fatalf("a constant of a higher stratum: stratified\n%swell-founded\n%s", got, want)
	}
}
