package incr_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// TestRederiveNeedsPropagation deletes an edge whose every consequence
// survives through a detour, on a graph where only the first layer of
// them is one step from the reduced state.  E holds the chain
// x3→x2→x1→x0→a, the edge a→b, the detour a→c1→c2→c3→b and the tail
// b→d1→d2.  Deleting a→b overdeletes s(a,·) and s(xi,·) towards b, d1
// and d2; from what is left, one rule application brings back s(a,·)
// (through E(a,c1) and the untouched s(c1,·)) and nothing else, because
// s(x0,·) needs the s(a,·) just restored, s(x1,·) needs s(x0,·), and so
// on.  The single rederivation pass therefore has to hand over to the
// semi-naive rounds, four deep here.  The closure does not change, so
// the net change must be empty as well as the state equal to a
// recompute.
func TestRederiveNeedsPropagation(t *testing.T) {
	const facts = `
E(x3,x2). E(x2,x1). E(x1,x0). E(x0,a).
E(a,b).
E(a,c1). E(c1,c2). E(c2,c3). E(c3,b).
E(b,d1). E(d1,d2).
V(x3). V(x2). V(x1). V(x0). V(a). V(b). V(c1). V(c2). V(c3). V(d1). V(d2).
`
	const tcNegSrc = tcSrc + "\nunreach(X,Y) :- V(X), V(Y), !s(X,Y)."
	edge := func(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }
	cases := []struct {
		src string
		sem core.Semantics
	}{
		{tcSrc, core.LFP},
		{tcSrc, core.Inflationary}, // positive program: coincides with LFP, maintained by DRed
		{tcSrc, core.Stratified},
		{tcNegSrc, core.Stratified},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/K%d/%d rules", tc.sem, k, len(parser.MustProgram(tc.src).Rules)), func(t *testing.T) {
				prog := parser.MustProgram(tc.src)
				mirror := parser.MustFacts(facts)
				m, err := incr.NewWith(prog, mirror, tc.sem, engine.Options{Partitions: k})
				if err != nil {
					t.Fatal(err)
				}
				steps := []struct {
					ins, del []incr.Fact
					netZero  bool
				}{
					{nil, edge("a", "b"), true}, // every consequence survives via the detour
					{edge("a", "b"), nil, true},
					{nil, edge("c2", "c3"), false},
					{nil, edge("a", "b"), false}, // now b is cut off from a and the chain
					{edge("c2", "c3"), edge("x1", "x0"), false},
				}
				for i, st := range steps {
					stats, err := m.Update(st.ins, st.del)
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					applyPlain(t, mirror, st.ins, st.del)
					want, err := core.Eval(prog, mirror, tc.sem, semantics.SemiNaive)
					if err != nil {
						t.Fatalf("step %d recompute: %v", i, err)
					}
					if got, exp := m.State().Format(m.Universe()), want.State.Format(want.Universe); got != exp {
						t.Fatalf("step %d: maintained state diverged\nmaintained:\n%s\nrecompute:\n%s", i, got, exp)
					}
					if zero := stats.InsertedIDB == 0 && stats.DeletedIDB == 0; zero != st.netZero {
						t.Errorf("step %d: net change +%d -%d, want none: %v", i, stats.InsertedIDB, stats.DeletedIDB, st.netZero)
					}
				}
			})
		}
	}
}

// sinkClosure builds serve-read's kind of input at a chosen size — the
// left-linear closure of G(n,p) whose last sinks vertices have no
// out-edge — plus a chain t0→…→t9→(last sink) nothing else leads into.
func sinkClosure(t *testing.T, n, sinks int, p float64) *incr.Maintainer {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	db := relation.NewDatabase()
	for v := 0; v < n; v++ {
		db.Universe().Intern(graphs.VertexName(v))
	}
	for a := 0; a < n-sinks; a++ {
		for b := 0; b < n; b++ {
			if a != b && rng.Float64() < p {
				db.AddFact("E", graphs.VertexName(a), graphs.VertexName(b))
			}
		}
	}
	for i := 0; i < 9; i++ {
		db.AddFact("E", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", i+1))
	}
	db.AddFact("E", "t9", graphs.VertexName(n-1))
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y).")
	m, err := incr.NewWith(prog, db, core.LFP, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestUpdateCostFollowsChange makes the same update on closures of
// about 4k and 35k tuples: the chain's edge into one sink is swapped
// for an edge into another, which takes ten tuples out of s and puts
// ten in, whatever else s holds.  What the update allocates must then
// not follow the relation's size: under 2x for a relation 9x larger.
// Bytes rather than time, so that it can gate.
func TestUpdateCostFollowsChange(t *testing.T) {
	perUpdate := func(n int, p float64) (bytes uint64, tuples int) {
		m := sinkClosure(t, n, 16, p)
		tuples = m.State()["s"].Len()
		into := func(sink int) []incr.Fact {
			return []incr.Fact{{Pred: "E", Args: []string{"t9", graphs.VertexName(sink)}}}
		}
		var samples []uint64
		for i := 0; i < 20; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stats, err := m.Update(into(n-2+i%2), into(n-1-i%2))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Strategy != "strata" || stats.DeletedIDB != 10 || stats.InsertedIDB != 10 {
				t.Fatalf("n=%d swap %d: strategy %s, net change +%d -%d, want DRed and +10 -10",
					n, i, stats.Strategy, stats.InsertedIDB, stats.DeletedIDB)
			}
			samples = append(samples, after.TotalAlloc-before.TotalAlloc)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2], tuples
	}
	small, smallTuples := perUpdate(70, 0.06)
	large, largeTuples := perUpdate(200, 0.02)
	if smallTuples < 3000 || smallTuples > 5000 || largeTuples < 8*smallTuples {
		t.Fatalf("closures of %d and %d tuples; the test wants about 4k and 35k", smallTuples, largeTuples)
	}
	t.Logf("%d tuples: %d bytes per update; %d tuples: %d bytes per update", smallTuples, small, largeTuples, large)
	if large >= 2*small {
		t.Errorf("an update allocates %d bytes on %d tuples and %d bytes on %d: it follows the relation, not the change",
			small, smallTuples, large, largeTuples)
	}
}
