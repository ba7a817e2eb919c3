package reductions

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/graphs"
)

// randomInstance draws a small random 3-SAT instance.
func randomInstance(rng *rand.Rand, maxVars int) *SATInstance {
	n := 2 + rng.Intn(maxVars-1)
	m := 1 + rng.Intn(3*n)
	inst := &SATInstance{NumVars: n}
	for i := 0; i < m; i++ {
		c := make([]int, 3)
		for j := range c {
			v := rng.Intn(n) + 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		inst.Clauses = append(inst.Clauses, c)
	}
	return inst
}

func TestSATDatabaseShape(t *testing.T) {
	inst := &SATInstance{NumVars: 2, Clauses: [][]int{{1, -2}, {2}}}
	db, err := SATDatabase(inst)
	if err != nil {
		t.Fatal(err)
	}
	if db.Universe().Size() != 4 { // 2 vars + 2 clauses
		t.Errorf("universe = %d, want 4", db.Universe().Size())
	}
	if db.Relation("V").Len() != 2 || db.Relation("P").Len() != 2 || db.Relation("N").Len() != 1 {
		t.Errorf("V=%d P=%d N=%d", db.Relation("V").Len(), db.Relation("P").Len(), db.Relation("N").Len())
	}
}

func TestSATDatabaseValidation(t *testing.T) {
	if _, err := SATDatabase(&SATInstance{NumVars: 1, Clauses: [][]int{{2}}}); err == nil {
		t.Error("out-of-range literal accepted")
	}
	if _, err := SATDatabase(&SATInstance{NumVars: 1, Clauses: [][]int{{0}}}); err == nil {
		t.Error("zero literal accepted")
	}
}

func TestTheorem1SATDirection(t *testing.T) {
	// Satisfiable instance: fixpoint exists and encodes a satisfying
	// assignment.
	inst := &SATInstance{NumVars: 3, Clauses: [][]int{{1, 2}, {-1, 3}, {-2, -3}}}
	db, _ := SATDatabase(inst)
	in := engine.MustNew(PiSAT(), db)
	has, st, err := fixpoint.Exists(in)
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Fatal("no fixpoint for a satisfiable instance")
	}
	assign := AssignmentFromFixpoint(inst, db, st)
	if !inst.Eval(assign) {
		t.Errorf("extracted assignment %v does not satisfy the instance", assign[1:])
	}
}

func TestTheorem1UnsatDirection(t *testing.T) {
	// x ∧ ¬x: no fixpoint.
	inst := &SATInstance{NumVars: 1, Clauses: [][]int{{1}, {-1}}}
	db, _ := SATDatabase(inst)
	in := engine.MustNew(PiSAT(), db)
	has, _, err := fixpoint.Exists(in)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Error("fixpoint exists for an unsatisfiable instance")
	}
}

func TestTheorem1AssignmentToFixpoint(t *testing.T) {
	// The proof's constructed state (S = assignment, Q = Aⁿ, T = ∅)
	// must be a real fixpoint.
	inst := &SATInstance{NumVars: 2, Clauses: [][]int{{1, 2}}}
	db, _ := SATDatabase(inst)
	in := engine.MustNew(PiSAT(), db)
	for mask := 0; mask < 4; mask++ {
		assign := []bool{false, mask&1 != 0, mask&2 != 0}
		st := FixpointFromAssignment(in, inst, assign)
		if inst.Eval(assign) != in.IsFixpoint(st) {
			t.Errorf("mask %b: Eval=%v but IsFixpoint=%v",
				mask, inst.Eval(assign), in.IsFixpoint(st))
		}
	}
}

func TestPropTheorem1Bijection(t *testing.T) {
	// #fixpoints of (π_SAT, D(I)) = #satisfying assignments of I —
	// the bijection behind Theorems 1 and 2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 4)
		db, err := SATDatabase(inst)
		if err != nil {
			return false
		}
		in := engine.MustNew(PiSAT(), db)
		count, exact, err := fixpoint.Count(in, 0)
		if err != nil || !exact {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := inst.CountModels()
		if count != want {
			t.Logf("seed %d: fixpoints=%d models=%d", seed, count, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTheorem2UniqueFixpoint(t *testing.T) {
	// (x) ∧ (x∨y) ∧ (¬y) has the unique model x=1,y=0.
	inst := &SATInstance{NumVars: 2, Clauses: [][]int{{1}, {1, 2}, {-2}}}
	db, _ := SATDatabase(inst)
	in := engine.MustNew(PiSAT(), db)
	ok, st, err := fixpoint.Unique(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("uniqueness not detected")
	}
	assign := AssignmentFromFixpoint(inst, db, st)
	if !assign[1] || assign[2] {
		t.Errorf("assignment = %v, want x=true y=false", assign[1:])
	}

	// Two models: x free with (y) — not unique.
	inst2 := &SATInstance{NumVars: 2, Clauses: [][]int{{2}}}
	db2, _ := SATDatabase(inst2)
	in2 := engine.MustNew(PiSAT(), db2)
	ok2, _, err := fixpoint.Unique(in2)
	if err != nil {
		t.Fatal(err)
	}
	if ok2 {
		t.Error("non-unique instance reported unique")
	}
}

func TestLemma1Coloring(t *testing.T) {
	cases := []struct {
		name string
		g    *graphs.Graph
	}{
		{"path", graphs.Path(4)},
		{"K3", graphs.Complete(3)},
		{"K4", graphs.Complete(4)},
		{"odd wheel", graphs.Wheel(5)},
		{"even cycle", graphs.Cycle(6)},
	}
	for _, c := range cases {
		db := c.g.Database()
		in := engine.MustNew(PiCOL(), db)
		has, st, err := fixpoint.Exists(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, want := c.g.ThreeColoring()
		if has != want {
			t.Errorf("%s: fixpoint=%v, 3-colorable=%v", c.name, has, want)
		}
		if has {
			colors := ColoringFromFixpoint(c.g, db, st)
			if !c.g.IsProper3Coloring(colors) {
				t.Errorf("%s: extracted coloring improper: %v", c.name, colors)
			}
		}
	}
}

func TestLemma1ColoringToFixpoint(t *testing.T) {
	g := graphs.Cycle(6)
	db := g.Database()
	in := engine.MustNew(PiCOL(), db)
	colors, ok := g.ThreeColoring()
	if !ok {
		t.Fatal("C6 should be colorable")
	}
	st := FixpointFromColoring(in, g, colors)
	if !in.IsFixpoint(st) {
		t.Error("coloring state is not a fixpoint")
	}
}

func TestPropLemma1CountsMatch(t *testing.T) {
	// #fixpoints of (π_COL, G) = #proper 3-colorings of G.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphs.Random(rng, 4, 0.4)
		db := g.Database()
		in := engine.MustNew(PiCOL(), db)
		count, exact, err := fixpoint.Count(in, 0)
		if err != nil || !exact {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := g.CountThreeColorings()
		if count != want {
			t.Logf("seed %d: fixpoints=%d colorings=%d", seed, count, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTheorem4Succinct(t *testing.T) {
	cases := []struct {
		name string
		sg   *circuit.SuccinctGraph
	}{
		{"empty n=1", circuit.EmptyGraph(1)},
		{"empty n=2", circuit.EmptyGraph(2)},
		{"cycle n=1", circuit.CycleGraph(1)},
		{"cycle n=2", circuit.CycleGraph(2)},
		{"complete n=1", circuit.CompleteGraph(1)},
		{"complete n=2", circuit.CompleteGraph(2)}, // K4: not 3-colorable
	}
	for _, c := range cases {
		prog, db := PiSuccinct3Col(c.sg)
		in, err := engine.New(prog, db)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		has, st, err := fixpoint.Exists(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		explicit := ExplicitGraph(c.sg)
		_, want := explicit.ThreeColoring()
		if has != want {
			t.Errorf("%s: fixpoint=%v, explicit 3-colorable=%v", c.name, has, want)
		}
		if has {
			colors := SuccinctColoringFromFixpoint(c.sg, in, st)
			if !explicit.IsProper3Coloring(colors) {
				t.Errorf("%s: extracted coloring improper: %v", c.name, colors)
			}
		}
	}
}

func TestPropTheorem4RandomCircuits(t *testing.T) {
	// Random circuits with 2 address bits: π_SC fixpoint existence must
	// track 3-colorability of the presented 4-vertex graph.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuit.Random(rng, 4, 6)
		sg, err := circuit.NewSuccinctGraph(c)
		if err != nil {
			return false
		}
		prog, db := PiSuccinct3Col(sg)
		in, err := engine.New(prog, db)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		has, _, err := fixpoint.Exists(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, want := ExplicitGraph(sg).ThreeColoring()
		if has != want {
			t.Logf("seed %d: fixpoint=%v colorable=%v", seed, has, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGateRelationsForcedByCompletion(t *testing.T) {
	// In any fixpoint of π_SC the edge relation must match the circuit
	// exactly (the proof's "G_k contains precisely the accepted
	// 2n-tuples").
	sg := circuit.CycleGraph(2)
	prog, db := PiSuccinct3Col(sg)
	in := engine.MustNew(prog, db)
	has, st, err := fixpoint.Exists(in)
	if err != nil || !has {
		t.Fatalf("has=%v err=%v", has, err)
	}
	u := in.Universe()
	zero, _ := u.Lookup("0")
	one, _ := u.Lookup("1")
	bit := func(x, j int) int {
		if x&(1<<j) != 0 {
			return one
		}
		return zero
	}
	edge := map[[2]int]bool{}
	for _, e := range sg.ExplicitEdges() {
		edge[e] = true
	}
	nv := sg.NumVertices()
	for x := 0; x < nv; x++ {
		for y := 0; y < nv; y++ {
			tuple := make([]int, 2*sg.N)
			for j := 0; j < sg.N; j++ {
				tuple[j] = bit(x, j)
				tuple[sg.N+j] = bit(y, j)
			}
			if st["e"].Has(tuple) != edge[[2]int{x, y}] {
				t.Fatalf("edge(%d,%d) mismatch", x, y)
			}
		}
	}
}
