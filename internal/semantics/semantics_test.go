package semantics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

const (
	pi1Src = "T(X) :- E(Y,X), !T(Y)."
	tcSrc  = `
S(X,Y) :- E(X,Y).
S(X,Y) :- E(X,Z), S(Z,Y).
`
	// distanceSrc is the paper's Proposition 2 program with carrier S3.
	distanceSrc = `
S1(X,Y) :- E(X,Y).
S1(X,Y) :- E(X,Z), S1(Z,Y).
S2(Xs,Ys) :- E(Xs,Ys).
S2(Xs,Ys) :- E(Xs,Zs), S2(Zs,Ys).
S3(X,Y,Xs,Ys) :- E(X,Y), !S2(Xs,Ys).
S3(X,Y,Xs,Ys) :- E(X,Z), S1(Z,Y), !S2(Xs,Ys).
`
)

func pathDB(n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 1; i <= n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 1; i < n; i++ {
		db.AddFact("E", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

func randomEdgeDB(rng *rand.Rand, n int, p float64) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				db.AddFact("E", fmt.Sprint(i), fmt.Sprint(j))
			}
		}
	}
	return db
}

// bfsDistances computes dist(u,v) = length of the shortest directed
// path with at least one edge, the distance notion of Proposition 2.
// Missing entries mean no path.
func bfsDistances(db *relation.Database) map[[2]int]int {
	n := db.Universe().Size()
	adj := make([][]int, n)
	if e := db.Relation("E"); e != nil {
		e.Each(func(t relation.Tuple) bool {
			adj[t[0]] = append(adj[t[0]], t[1])
			return true
		})
	}
	dist := make(map[[2]int]int)
	for src := 0; src < n; src++ {
		// BFS from each out-neighbour, offset by one edge.
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		queue := []int{}
		for _, z := range adj[src] {
			if d[z] < 0 {
				d[z] = 1
				queue = append(queue, z)
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if d[w] < 0 {
					d[w] = d[u] + 1
					queue = append(queue, w)
				}
			}
		}
		for v := 0; v < n; v++ {
			if d[v] > 0 {
				dist[[2]int{src, v}] = d[v]
			}
		}
	}
	return dist
}

func TestInflationaryPi1OneExtraRound(t *testing.T) {
	// Paper §4: for π₁, Θ^∞ = Θ¹ = {x : ∃y E(y,x)} on any graph.
	db := pathDB(6)
	in := engine.MustNew(parser.MustProgram(pi1Src), db)
	res := Inflationary(in)
	if res.State["T"].Len() != 5 {
		t.Errorf("Θ^∞ T len = %d, want 5", res.State["T"].Len())
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (Θ¹ then a no-op stage)", res.Stats.Rounds)
	}
}

func TestInflationaryToggleIsFullUniverse(t *testing.T) {
	// Paper §4: for T(z) ← ¬T(w), Θ^∞ = Θ¹ = A.
	db := relation.NewDatabase()
	db.AddConstant("a")
	db.AddConstant("b")
	in := engine.MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	res := Inflationary(in)
	if res.State["T"].Len() != 2 {
		t.Errorf("Θ^∞ = %v, want full universe", res.State["T"].Format(db.Universe()))
	}
}

func TestInflationaryEqualsLFPOnPositive(t *testing.T) {
	// Paper §4: on DATALOG programs the inflationary semantics
	// coincides with the least fixpoint.
	db := pathDB(8)
	in := engine.MustNew(parser.MustProgram(tcSrc), db)
	lfp := Inflationary(in)
	// The least model is the well-founded one, total on a positive
	// program.
	if wf := WellFounded(in); !wf.Total() || !wf.True.Equal(lfp.State) {
		t.Error("inflationary semantics is not the least model on a positive program")
	}
	// The result must be a true Θ-fixpoint.
	if !in.IsFixpoint(lfp.State) {
		t.Error("the inflationary result is not a fixpoint of Θ")
	}
	// TC of a path of 8 vertices has 7+6+…+1 = 28 pairs.
	if lfp.State["S"].Len() != 28 {
		t.Errorf("TC size = %d, want 28", lfp.State["S"].Len())
	}
}

func TestInflationaryNotAFixpointSometimes(t *testing.T) {
	// Paper §4: Θ^∞ need not be a fixpoint of Θ.  For π₁ on L₃,
	// Θ^∞ = {2,3} but Θ({2,3}) = {2}: vertices 2,3 both have incoming
	// edges, yet 3's predecessor 2 is in T.
	db := pathDB(3)
	in := engine.MustNew(parser.MustProgram(pi1Src), db)
	res := Inflationary(in)
	if res.State["T"].Len() != 2 {
		t.Fatalf("Θ^∞ T = %v", res.State["T"].Format(db.Universe()))
	}
	if in.IsFixpoint(res.State) {
		t.Error("Θ^∞ unexpectedly a fixpoint of Θ on L₃")
	}
}

func TestStratifiedPi2(t *testing.T) {
	// π₂ under stratified semantics: S2 = TC × complement(TC).
	src := `
S1(X,Y) :- E(X,Y).
S1(X,Y) :- E(X,Z), S1(Z,Y).
S2(X,Y,Z,W) :- S1(X,Y), !S1(Z,W).
`
	db := pathDB(3) // TC = {(1,2),(1,3),(2,3)}, complement has 6 pairs
	res, err := Stratified(parser.MustProgram(src), db)
	if err != nil {
		t.Fatal(err)
	}
	if res.State["S1"].Len() != 3 {
		t.Errorf("S1 len = %d, want 3", res.State["S1"].Len())
	}
	if res.State["S2"].Len() != 3*6 {
		t.Errorf("S2 len = %d, want 18", res.State["S2"].Len())
	}
}

func TestStratifiedRejectsPi1(t *testing.T) {
	if _, err := Stratified(parser.MustProgram(pi1Src), pathDB(3)); err == nil {
		t.Error("stratified semantics accepted π₁")
	}
}

func TestStratifiedDoesNotMutateDB(t *testing.T) {
	db := pathDB(3)
	before := db.String()
	if _, err := Stratified(parser.MustProgram(tcSrc), db); err != nil {
		t.Fatal(err)
	}
	if db.String() != before {
		t.Error("Stratified mutated the input database")
	}
}

func TestDistanceQueryInflationary(t *testing.T) {
	// Proposition 2: under inflationary semantics the carrier S3
	// computes D(x,y,x*,y*) ⇔ dist(x,y) ≤ dist(x*,y*), with "yes"
	// whenever x→y is connected but x*→y* is not.
	for _, mkdb := range []func() *relation.Database{
		func() *relation.Database { return pathDB(4) },
		func() *relation.Database { return randomEdgeDB(rand.New(rand.NewSource(7)), 5, 0.3) },
	} {
		db := mkdb()
		dist := bfsDistances(db)
		in := engine.MustNew(parser.MustProgram(distanceSrc), db)
		res := Inflationary(in)
		n := db.Universe().Size()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				dxy, okxy := dist[[2]int{x, y}]
				for xs := 0; xs < n; xs++ {
					for ys := 0; ys < n; ys++ {
						dst, okst := dist[[2]int{xs, ys}]
						want := okxy && (!okst || dxy <= dst)
						got := res.State["S3"].Has(relation.Tuple{x, y, xs, ys})
						if got != want {
							t.Fatalf("D(%d,%d,%d,%d) = %v, want %v (d=%d,%v d*=%d,%v)",
								x, y, xs, ys, got, want, dxy, okxy, dst, okst)
						}
					}
				}
			}
		}
	}
}

func TestDistanceQueryStratifiedDiffers(t *testing.T) {
	// The same rules as a stratified program compute TC(x,y) ∧ ¬TC(x*,y*),
	// which differs from the distance query (paper, end of §4).
	db := pathDB(3)
	prog := parser.MustProgram(distanceSrc)
	strat, err := Stratified(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	in := engine.MustNew(parser.MustProgram(distanceSrc), db)
	infl := Inflationary(in)

	u := db.Universe()
	id := func(s string) int {
		v, ok := u.Lookup(s)
		if !ok {
			t.Fatalf("missing %s", s)
		}
		return v
	}
	// dist(1,2)=1 ≤ dist(1,3)=2, so inflationary holds; but TC(1,3) is
	// true, so stratified does not.
	q := relation.Tuple{id("1"), id("2"), id("1"), id("3")}
	if !infl.State["S3"].Has(q) {
		t.Error("inflationary missing (1,2,1,3)")
	}
	if strat.State["S3"].Has(q) {
		t.Error("stratified unexpectedly contains (1,2,1,3)")
	}
	// Both contain (1,2,3,1): no path 3→1.
	q2 := relation.Tuple{id("1"), id("2"), id("3"), id("1")}
	if !infl.State["S3"].Has(q2) || !strat.State["S3"].Has(q2) {
		t.Error("both semantics should contain (1,2,3,1)")
	}
	// Stratified S3 must equal TC × ¬TC exactly.
	tc := strat.State["S1"]
	n := u.Size()
	want := 0
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if !tc.Has(relation.Tuple{x, y}) {
				continue
			}
			for xs := 0; xs < n; xs++ {
				for ys := 0; ys < n; ys++ {
					if !tc.Has(relation.Tuple{xs, ys}) {
						want++
					}
				}
			}
		}
	}
	if strat.State["S3"].Len() != want {
		t.Errorf("stratified S3 len = %d, want %d", strat.State["S3"].Len(), want)
	}
}

func TestWellFoundedWinMove(t *testing.T) {
	// win(X) ← move(X,Y), ¬win(Y) on the path 1→2→3: 3 is lost, 2 won,
	// 1 lost; the model is total.
	src := "win(X) :- move(X,Y), !win(Y)."
	db := relation.NewDatabase()
	db.AddFact("move", "1", "2")
	db.AddFact("move", "2", "3")
	in := engine.MustNew(parser.MustProgram(src), db)
	wf := WellFounded(in)
	if !wf.Total() {
		t.Fatalf("expected total model, undefined = %v", wf.Undefined().Format(db.Universe()))
	}
	two, _ := db.Universe().Lookup("2")
	if wf.True["win"].Len() != 1 || !wf.True["win"].Has(relation.Tuple{two}) {
		t.Errorf("True win = %v, want {2}", wf.True["win"].Format(db.Universe()))
	}
}

func TestWellFoundedDraw(t *testing.T) {
	// On the 2-cycle a↔b every position is a draw: win is undefined on
	// both.
	src := "win(X) :- move(X,Y), !win(Y)."
	db := relation.NewDatabase()
	db.AddFact("move", "a", "b")
	db.AddFact("move", "b", "a")
	in := engine.MustNew(parser.MustProgram(src), db)
	wf := WellFounded(in)
	if wf.Total() {
		t.Fatal("expected a partial model on the 2-cycle")
	}
	if wf.True["win"].Len() != 0 {
		t.Errorf("True win = %v, want ∅", wf.True["win"].Format(db.Universe()))
	}
	if wf.Undefined()["win"].Len() != 2 {
		t.Errorf("Undefined win len = %d, want 2", wf.Undefined()["win"].Len())
	}
}

func TestWellFoundedAgreesWithStratified(t *testing.T) {
	// On stratified programs the well-founded model is total and equals
	// the stratified (perfect) model.
	src := `
S1(X,Y) :- E(X,Y).
S1(X,Y) :- E(X,Z), S1(Z,Y).
S2(X,Y,Z,W) :- S1(X,Y), !S1(Z,W).
`
	for seed := int64(0); seed < 5; seed++ {
		db := randomEdgeDB(rand.New(rand.NewSource(seed)), 4, 0.3)
		prog := parser.MustProgram(src)
		strat, err := Stratified(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		in := engine.MustNew(parser.MustProgram(src), db)
		wf := WellFounded(in)
		if !wf.Total() {
			t.Fatalf("seed %d: WF not total on stratified program", seed)
		}
		if !wf.True.Equal(strat.State) {
			t.Errorf("seed %d: WF and stratified differ\nwf: %v\nstrat: %v",
				seed, wf.True.Format(db.Universe()), strat.State.Format(db.Universe()))
		}
	}
}

func TestWellFoundedToggleAllUndefined(t *testing.T) {
	// T(z) ← ¬T(w): the classic no-fixpoint program has the everywhere-
	// undefined well-founded model.
	db := relation.NewDatabase()
	db.AddConstant("a")
	in := engine.MustNew(parser.MustProgram("T(Z) :- !T(W)."), db)
	wf := WellFounded(in)
	if wf.True["T"].Len() != 0 {
		t.Errorf("True T = %v", wf.True["T"].Format(db.Universe()))
	}
	if wf.Undefined()["T"].Len() != 1 {
		t.Errorf("Undefined T len = %d, want 1", wf.Undefined()["T"].Len())
	}
}

func TestPropInflationaryIsInflationary(t *testing.T) {
	// Each evaluation's result contains Θ(∅) and is contained in the
	// full state; and re-running is deterministic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomEdgeDB(rng, 5, 0.25)
		in := engine.MustNew(parser.MustProgram(pi1Src), db)
		res := Inflationary(in)
		theta1 := in.Apply(in.NewState())
		if !subsetOf(theta1, res.State) {
			return false
		}
		res2 := Inflationary(in)
		return res.State.Equal(res2.State)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropRoundsWithinBound(t *testing.T) {
	// Paper §4: the inflationary iteration stabilizes within |A|^k
	// stages (k the maximum IDB arity); with the extra no-op detection
	// round this bounds Rounds by |A|^k + 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomEdgeDB(rng, 4, 0.4)
		in := engine.MustNew(parser.MustProgram(tcSrc), db)
		res := Inflationary(in)
		n := db.Universe().Size()
		return res.Stats.Rounds <= n*n+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWellFoundedStatsPopulated(t *testing.T) {
	db := pathDB(4)
	in := engine.MustNew(parser.MustProgram("win(X) :- E(X,Y), !win(Y)."), db)
	wf := WellFounded(in)
	if wf.Outer < 1 || wf.Stats.Rounds < 2 {
		t.Errorf("stats = %+v outer = %d", wf.Stats, wf.Outer)
	}
}

// BenchmarkWellFoundedBuild evaluates win-move under the well-founded
// semantics from scratch on incr's BenchmarkGammaChainUpdate board, the
// seeded G(60, 0.05): two stages held, every one past the second
// stepped by DRed from the stage two below.
func BenchmarkWellFoundedBuild(b *testing.B) {
	g := graphs.Random(rand.New(rand.NewSource(1)), 60, 0.05)
	in := engine.MustNew(parser.MustProgram("win(X) :- E(X,Y), !win(Y)."), g.Database())
	b.ReportAllocs()
	for b.Loop() {
		WellFounded(in)
	}
}

// BenchmarkInflationaryDistance evaluates the paper's distance program
// under the inflationary semantics on a seeded G(28, 0.06), the shape
// of eval-batch's distance/inflationary case: every round's pass
// appends to the state it reads, and its B/op is what the fixpoint
// allocates.
func BenchmarkInflationaryDistance(b *testing.B) {
	g := graphs.Random(rand.New(rand.NewSource(1)), 28, 0.06)
	in := engine.MustNew(parser.MustProgram(distanceSrc), g.Database())
	b.ReportAllocs()
	for b.Loop() {
		Inflationary(in)
	}
}

// BenchmarkStratifiedDistance evaluates the distance program under the
// stratified semantics on the same seeded G(28, 0.06), eval-batch's
// distance/stratified case: S3's bodies are two variable-disjoint
// parts, (X,Y) and (Xs,Ys), each evaluated once per pass and emitted as
// their product.
func BenchmarkStratifiedDistance(b *testing.B) {
	g := graphs.Random(rand.New(rand.NewSource(1)), 28, 0.06)
	prog := parser.MustProgram(distanceSrc)
	db := g.Database()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Stratified(prog, db); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPropFrontierBitExactAllSemantics: every semantics —
// inflationary, least fixpoint, stratified, and well-founded — on the
// frontier pipeline produces exactly the model internal/wforacle
// computes over ground atoms.  Besides the small random graphs, the
// transitive closure of a sparse 120-vertex graph has semi-naive deltas
// of thousands of tuples.
func TestPropFrontierBitExactAllSemantics(t *testing.T) {
	type input struct {
		name  string
		db    *relation.Database
		progs []string
	}
	var inputs []input
	for seed := int64(0); seed < 4; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed),
			randomEdgeDB(rand.New(rand.NewSource(seed)), 6, 0.3), []string{tcSrc, pi1Src, distanceSrc}})
	}
	inputs = append(inputs, input{"sparse 120-vertex graph", randomEdgeDB(rand.New(rand.NewSource(42)), 120, 0.03), []string{tcSrc}})

	for _, input := range inputs {
		db := input.db
		for _, src := range input.progs {
			prog := parser.MustProgram(src)
			domain, facts := oracleInput(prog, db)
			stages := wforacle.Inflationary(prog, domain, facts)
			infl := stages[len(stages)-1]
			lower, upper := wforacle.Solve(prog, domain, facts)

			check := func(what string, u *relation.Universe, got engine.State, want map[string]bool) {
				t.Helper()
				if d := wforacle.Diff(what, wforacle.Atoms(u, got), want); d != "" {
					t.Fatalf("%s: %s differs from the oracle: %s\n%s", input.name, what, d, src)
				}
			}
			in := engine.MustNew(prog, db.Clone())
			check("inflationary", in.Universe(), Inflationary(in).State, infl)
			in = engine.MustNew(prog, db.Clone())
			wf := WellFounded(in)
			check("well-founded true", in.Universe(), wf.True, lower)
			check("well-founded possible", in.Universe(), wf.Possible, upper)
			if res, err := Stratified(prog, db); err == nil {
				check("stratified", res.Universe, res.State, lower)
			}
		}
	}
}

// TestConcurrentEvaluationMatchesOracle evaluates on two goroutines at
// once, each on its own instances, and checks every result against the
// oracle; the race target runs this package under -race.
func TestConcurrentEvaluationMatchesOracle(t *testing.T) {
	db := randomEdgeDB(rand.New(rand.NewSource(3)), 10, 0.2)
	type want struct {
		prog         string
		infl, lo, up map[string]bool
	}
	var wants []want
	for _, src := range []string{tcSrc, pi1Src} {
		prog := parser.MustProgram(src)
		domain, facts := oracleInput(prog, db)
		stages := wforacle.Inflationary(prog, domain, facts)
		lo, up := wforacle.Solve(prog, domain, facts)
		wants = append(wants, want{src, stages[len(stages)-1], lo, up})
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for _, w := range wants {
					prog := parser.MustProgram(w.prog)
					in := engine.MustNew(prog, db.Clone())
					u := in.Universe()
					infl := Inflationary(in).State
					wf := WellFounded(engine.MustNew(prog, db.Clone()))
					for _, c := range []struct {
						what string
						got  engine.State
						want map[string]bool
					}{{"inflationary", infl, w.infl}, {"well-founded true", wf.True, w.lo}, {"well-founded possible", wf.Possible, w.up}} {
						if d := wforacle.Diff(c.what, wforacle.Atoms(u, c.got), c.want); d != "" {
							errs <- fmt.Sprintf("goroutine %d: %s differs from the oracle: %s\n%s", g, c.what, d, w.prog)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
