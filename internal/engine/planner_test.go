package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

// randomProgram generates a syntactically valid DATALOG¬ program over a
// fixed schema (E/2, V/1 EDB; S/2, P/1, Q/2 IDB) with random rule
// bodies mixing positive and negated literals and comparisons.  Head
// variables may be unbound (universe enumeration) and literals may
// repeat variables, so every step kind of the planner is exercised.
func randomProgram(rng *rand.Rand) string {
	vars := []string{"X", "Y", "Z", "W"}
	type pred struct {
		name  string
		arity int
	}
	edb := []pred{{"E", 2}, {"V", 1}}
	idb := []pred{{"S", 2}, {"P", 1}, {"Q", 2}}
	all := append(append([]pred{}, edb...), idb...)

	randVar := func() string { return vars[rng.Intn(len(vars))] }
	atom := func(p pred) string {
		args := make([]string, p.arity)
		for i := range args {
			args[i] = randVar()
		}
		return fmt.Sprintf("%s(%s)", p.name, strings.Join(args, ","))
	}

	nRules := 2 + rng.Intn(3)
	var rules []string
	for r := 0; r < nRules; r++ {
		head := atom(idb[rng.Intn(len(idb))])
		nLits := 1 + rng.Intn(3)
		var body []string
		for l := 0; l < nLits; l++ {
			switch rng.Intn(6) {
			case 0:
				body = append(body, "!"+atom(all[rng.Intn(len(all))]))
			case 1:
				op := "="
				if rng.Intn(2) == 0 {
					op = "!="
				}
				body = append(body, fmt.Sprintf("%s %s %s", randVar(), op, randVar()))
			default:
				body = append(body, atom(all[rng.Intn(len(all))]))
			}
		}
		rules = append(rules, fmt.Sprintf("%s :- %s.", head, strings.Join(body, ", ")))
	}
	return strings.Join(rules, "\n")
}

// inflate iterates S ∪ Θ(S) to its inductive fixpoint (the semantics
// package is off-limits here: it imports engine).
func inflate(in *Instance) State {
	cur := in.NewState()
	for {
		next := cur.Clone()
		if next.UnionWith(in.Apply(cur)) == 0 {
			return next
		}
		cur = next
	}
}

// oracleTheta is wforacle.Theta — ground Θ over maps of atoms, sharing
// nothing with this package — on in's program and database, read at s.
func oracleTheta(in *Instance, s State) map[string]bool {
	rels := map[string]*relation.Relation{}
	for _, name := range in.db.Names() {
		rels[name] = in.db.Relation(name)
	}
	domain, facts := wforacle.Input(in.prog, in.Universe(), rels)
	return wforacle.Theta(in.prog, domain, facts, wforacle.Atoms(in.Universe(), s))
}

// TestPropPlannerMatchesTheta is the planner's acceptance property:
// over randomized programs and the join suites' programs (triangles,
// same-generation, transitive closure) on instances small enough to
// ground, the cost-planned Apply derives
// exactly the oracle's Θ at every stage of the inflationary iteration,
// sequentially and on four workers.
func TestPropPlannerMatchesTheta(t *testing.T) {
	type suite struct {
		name, src string
		db        *relation.Database
	}
	var suites []suite
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		db := randomEdgeDB(rng, 4, 0.4)
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				db.AddFact("V", fmt.Sprint(i))
			}
		}
		suites = append(suites, suite{fmt.Sprint("random/", seed), src, db})
	}
	// The join suites' programs (internal/workload), on instances small
	// enough to ground: a binary tree of depth 3 for same-generation.
	tree := relation.NewDatabase()
	for i := 2; i < 16; i++ {
		tree.AddFact("up", fmt.Sprint(i), fmt.Sprint(i/2))
		tree.AddFact("down", fmt.Sprint(i/2), fmt.Sprint(i))
	}
	tree.AddFact("flat", "2", "3")
	tree.AddFact("flat", "3", "2")
	suites = append(suites,
		suite{"triangle", "tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).", randomEdgeDB(rand.New(rand.NewSource(1)), 12, 0.3)},
		suite{"same-gen/tree", "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).", tree},
		suite{"tc/path", "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).", pathDB(10)},
	)
	for _, sc := range suites {
		prog, err := parser.Program(sc.src)
		if err != nil {
			t.Fatalf("%s: generated unparsable program:\n%s\n%v", sc.name, sc.src, err)
		}
		for _, nw := range []int{1, 4} {
			setProcs(t, nw)
			in := MustNew(prog, sc.db.Clone())
			for cur, stage := in.NewState(), 0; ; stage++ {
				got := in.Apply(cur)
				if d := wforacle.Diff("derived", wforacle.Atoms(in.Universe(), got), oracleTheta(in, cur)); d != "" {
					t.Fatalf("%s workers %d: Θ(S%d) differs from the oracle's: %s\nprogram:\n%s", sc.name, nw, stage, d, sc.src)
				}
				next := cur.Clone()
				if next.UnionWith(got) == 0 {
					break
				}
				cur = next
			}
		}
	}
}

// TestPlannerConstantColumns pins the access paths around constants:
// constant columns join the composite probe alongside bound variables.
func TestPlannerConstantColumns(t *testing.T) {
	src := `
P(X) :- E(X, a).
flag :- E(a, b).
R(Y) :- E(a, Y), E(Y, b).
`
	db := pathDB(2)
	db.AddFact("E", "a", "b")
	db.AddFact("E", "b", "b")
	db.AddFact("E", "x", "a")
	in := MustNew(parser.MustProgram(src), db)
	out := in.Apply(in.NewState())
	u := in.Universe()
	bID, _ := u.Lookup("b")
	xID, _ := u.Lookup("x")
	if out["P"].Len() != 1 || !out["P"].Has([]int{xID}) {
		t.Errorf("P = %s, want {(x)}", out["P"].Format(u))
	}
	if out["flag"].Len() != 1 {
		t.Error("flag not derived")
	}
	if out["R"].Len() != 1 || !out["R"].Has([]int{bID}) {
		t.Errorf("R = %s, want {(b)}", out["R"].Format(u))
	}
}

// triangleAllocsSetup builds the zero-alloc fixture: a zero-arity head
// over a 3-way cyclic join, so after a warm-up Apply (which populates
// the indexes and derives the single head tuple once) repeated
// applications re-derive only duplicates — every allocation left is
// fixed per-Apply overhead, none per probed tuple.
func triangleAllocsSetup(t testing.TB, n int) (*Instance, State) {
	rng := rand.New(rand.NewSource(3))
	db := randomEdgeDB(rng, n, 0.3)
	setProcs(t, 1)
	in := MustNew(parser.MustProgram("q :- E(X,Y), E(Y,Z), E(Z,X)."), db)
	s := in.NewState()
	in.Apply(s) // warm indexes
	return in, s
}

// TestJoinProbeZeroAllocs is the regression guard for the satellite
// fix: allocations per Apply must be a small constant that does not
// grow with the number of probed tuples.  A per-match allocation (the
// old bonds slice) would scale with the ~n³p³ candidate triangles and
// blow far past the bound on the larger graph.
func TestJoinProbeZeroAllocs(t *testing.T) {
	for _, n := range []int{12, 28} {
		in, s := triangleAllocsSetup(t, n)
		allocs := testing.AllocsPerRun(10, func() { in.Apply(s) })
		if allocs > 64 {
			t.Errorf("n=%d: %v allocs per Apply, want fixed overhead ≤ 64", n, allocs)
		}
	}
}

// BenchmarkJoinAllocs tracks the probe path's allocation behavior over
// time (allocs/op must stay flat as the CI trajectory source).
func BenchmarkJoinAllocs(b *testing.B) {
	in, s := triangleAllocsSetup(b, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Apply(s)
	}
}

// TestExplainSmoke checks the explain rendering: join order, access
// paths and estimates appear.
func TestExplainSmoke(t *testing.T) {
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	in := MustNew(parser.MustProgram(src), pathDB(5))
	fix := inflate(in)

	var on strings.Builder
	in.Explain(&on, fix)
	for _, want := range []string{"rule 1: ", "join", "scan", "est=", "s(Z,Y)"} {
		if !strings.Contains(on.String(), want) {
			t.Errorf("explain missing %q:\n%s", want, on.String())
		}
	}
	if !strings.Contains(on.String(), "index[") {
		t.Errorf("explain shows no index probe:\n%s", on.String())
	}

	// A literal whose columns are all bound is a membership probe.
	var member strings.Builder
	MustNew(parser.MustProgram("p(X,Y) :- E(X,Y), s(X,Y)."), pathDB(5)).Explain(&member, fix)
	if !strings.Contains(member.String(), "member") || strings.Contains(member.String(), "index[") {
		t.Errorf("explain of a fully bound literal shows no membership probe:\n%s", member.String())
	}

}
