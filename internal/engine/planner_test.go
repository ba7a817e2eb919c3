package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parser"
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

// TestPropPlannerMatchesSyntacticOrder is the planner's acceptance
// property: over randomized programs and databases, cost-based planning
// derives exactly the relations the legacy syntactic order derives —
// per Θ application and at the inflationary fixpoint — and stays
// bit-exact across worker counts.
func TestPropPlannerMatchesSyntacticOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable program:\n%s\n%v", seed, src, err)
		}
		db := randomEdgeDB(rng, 4, 0.4)
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				db.AddFact("V", fmt.Sprint(i))
			}
		}

		oracle := MustNew(prog, db.Clone())
		oracle.SetCostPlanner(false)
		oracle.SetWorkers(1)
		planned := MustNew(prog, db.Clone())
		planned.SetCostPlanner(true)
		planned.SetWorkers(1)

		s0 := oracle.NewState()
		if got, want := planned.Apply(s0), oracle.Apply(s0); !got.Equal(want) {
			t.Fatalf("seed %d: Θ(∅) differs under cost-based planning\nprogram:\n%s\ngot:\n%v\nwant:\n%v",
				seed, src, got.Format(db.Universe()), want.Format(db.Universe()))
		}
		want := inflate(oracle)
		got := inflate(planned)
		if !got.Equal(want) {
			t.Fatalf("seed %d: inflationary fixpoint differs under cost-based planning\nprogram:\n%s\ngot:\n%v\nwant:\n%v",
				seed, src, got.Format(db.Universe()), want.Format(db.Universe()))
		}

		parallel := MustNew(prog, db.Clone())
		parallel.SetCostPlanner(true)
		parallel.SetWorkers(4)
		if !inflate(parallel).Equal(want) {
			t.Fatalf("seed %d: planner-on fixpoint differs with 4 workers\nprogram:\n%s", seed, src)
		}
	}
}

// TestPlannerConstantColumns pins the access paths around constants in
// both modes: wide composite probes (cost-based) versus first-bound-
// column probe plus compiled constant checks (legacy).
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
	for _, on := range []bool{true, false} {
		in := MustNew(parser.MustProgram(src), db.Clone())
		in.SetCostPlanner(on)
		out := in.Apply(in.NewState())
		u := in.Universe()
		aID, _ := u.Lookup("a")
		bID, _ := u.Lookup("b")
		xID, _ := u.Lookup("x")
		if out["P"].Len() != 1 || !out["P"].Has([]int{xID}) {
			t.Errorf("planner=%v: P = %s, want {(x)}", on, out["P"].Format(u))
		}
		if out["flag"].Len() != 1 {
			t.Errorf("planner=%v: flag not derived", on)
		}
		if out["R"].Len() != 1 || !out["R"].Has([]int{bID}) {
			t.Errorf("planner=%v: R = %s, want {(b)}", on, out["R"].Format(u))
		}
		_ = aID
	}
}

// TestPlannerKnobs covers the tri-state planner selector: explicit,
// process default, and the on-by-default fallback.
func TestPlannerKnobs(t *testing.T) {
	in := MustNew(parser.MustProgram("s(X,Y) :- E(X,Y)."), pathDB(3))
	if !in.CostPlanner() {
		t.Error("planner should default to on")
	}
	SetDefaultCostPlanner(false)
	if in.CostPlanner() {
		t.Error("process default off not honored")
	}
	in.SetCostPlanner(true)
	if !in.CostPlanner() {
		t.Error("explicit on overridden by process default")
	}
	SetDefaultCostPlanner(true)
	in.SetCostPlanner(false)
	if in.CostPlanner() {
		t.Error("explicit off overridden by process default")
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
	in := MustNew(parser.MustProgram("q :- E(X,Y), E(Y,Z), E(Z,X)."), db)
	in.SetWorkers(1)
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
// paths and estimates appear for both planner modes.
func TestExplainSmoke(t *testing.T) {
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	in := MustNew(parser.MustProgram(src), pathDB(5))
	fix := inflate(in)

	var on strings.Builder
	in.Explain(&on, fix)
	for _, want := range []string{"rule 1 [cost-based]", "join", "scan", "est=", "s(Z,Y)"} {
		if !strings.Contains(on.String(), want) {
			t.Errorf("cost-based explain missing %q:\n%s", want, on.String())
		}
	}
	if !strings.Contains(on.String(), "index[") {
		t.Errorf("cost-based explain shows no index probe:\n%s", on.String())
	}

	// A literal whose columns are all bound is a membership probe.
	var member strings.Builder
	MustNew(parser.MustProgram("p(X,Y) :- E(X,Y), s(X,Y)."), pathDB(5)).Explain(&member, fix)
	if !strings.Contains(member.String(), "member") || strings.Contains(member.String(), "index[") {
		t.Errorf("explain of a fully bound literal shows no membership probe:\n%s", member.String())
	}

	in.SetCostPlanner(false)
	var off strings.Builder
	in.Explain(&off, fix)
	if !strings.Contains(off.String(), "[syntactic]") {
		t.Errorf("legacy explain not labeled:\n%s", off.String())
	}
}
