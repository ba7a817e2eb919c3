package incr_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
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
	// K is the worker pool's width, as in TestChainMatchesRecompute.
	for _, tc := range cases {
		for _, k := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/K%d/%d rules", tc.sem, k, len(parser.MustProgram(tc.src).Rules)), func(t *testing.T) {
				prog := parser.MustProgram(tc.src)
				mirror := parser.MustFacts(facts)
				setProcs(t, k)
				m, err := incr.New(prog, mirror, tc.sem)
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
					want, err := core.Eval(prog, mirror, tc.sem)
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
	setProcs(t, 1)
	m, err := incr.New(prog, db, core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// medianAlloc applies swap(0) … swap(19) and returns the median number
// of bytes one of them allocates; every update must be handled by the
// given strategy, and the maintained state must gain and lose the
// numbers of tuples swap announces.  With publish set, each update is
// followed — inside the measurement — by the Snapshot a daemon hands its
// readers, so the next update pays for detaching from it.  Deterministic
// with GOMAXPROCS 1.
func medianAlloc(t *testing.T, m *incr.Maintainer, strategy string, publish bool, swap func(i int) (ins, del []incr.Fact, gained, lost int)) uint64 {
	t.Helper()
	var samples []uint64
	for i := 0; i < 20; i++ {
		ins, del, gained, lost := swap(i)
		var stats *incr.UpdateStats
		var err error
		bytes := allocated(func() {
			stats, err = m.Update(ins, del)
			if publish {
				m.Snapshot()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Strategy != strategy || stats.InsertedIDB != gained || stats.DeletedIDB != lost {
			t.Fatalf("swap %d: strategy %s, net change +%d -%d, want %s, +%d -%d",
				i, stats.Strategy, stats.InsertedIDB, stats.DeletedIDB, strategy, gained, lost)
		}
		samples = append(samples, bytes)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestUpdateCostFollowsChange makes the same update on closures of
// about 4k and 35k tuples: the chain's edge into one sink is swapped
// for an edge into another, which takes ten tuples out of s and puts
// ten in, whatever else s holds.  What the update allocates must then
// not follow the relation's size: under 2x for a relation 9x larger.
// Bytes rather than time, so that it can gate.
//
// The second half publishes a Snapshot after every update, as the
// daemon does, so each update starts by detaching s and E from the
// views.  What that costs is split three ways by measuring, on the
// maintained s itself, an append and a Remove right after a publish:
// the key table's clone (all an append pays beyond one chunk), the
// clone of the index sets the views took (what a Remove pays on top),
// and the arena — the rest, which must stay within the chunks the
// changed tuples lie in whatever the relation's size.  The first two
// still follow the relation; their sizes are logged as the baseline for
// the change that chunks them.
func TestUpdateCostFollowsChange(t *testing.T) {
	perUpdate := func(n int, p float64, publish bool) (bytes uint64, m *incr.Maintainer) {
		m = sinkClosure(t, n, 16, p)
		into := func(sink int) []incr.Fact {
			return []incr.Fact{{Pred: "E", Args: []string{"t9", graphs.VertexName(sink)}}}
		}
		bytes = medianAlloc(t, m, "strata", publish, func(i int) (ins, del []incr.Fact, gained, lost int) {
			return into(n - 2 + i%2), into(n - 1 - i%2), 10, 10
		})
		return bytes, m
	}
	small, sm := perUpdate(70, 0.06, false)
	large, lm := perUpdate(200, 0.02, false)
	smallTuples, largeTuples := sm.State()["s"].Len(), lm.State()["s"].Len()
	if smallTuples < 3000 || smallTuples > 5000 || largeTuples < 8*smallTuples {
		t.Fatalf("closures of %d and %d tuples; the test wants about 4k and 35k", smallTuples, largeTuples)
	}
	t.Logf("%d tuples: %d bytes per update; %d tuples: %d bytes per update", smallTuples, small, largeTuples, large)
	if large >= 2*small {
		t.Errorf("an update allocates %d bytes on %d tuples and %d bytes on %d: it follows the relation, not the change",
			small, smallTuples, large, largeTuples)
	}

	// One arena chunk of s: 1024 tuples of two ids (relation.chunkLen).
	const chunkBytes = 1024 * 2 * 8
	for _, c := range []struct {
		n     int
		p     float64
		plain uint64
	}{{70, 0.06, small}, {200, 0.02, large}} {
		published, m := perUpdate(c.n, c.p, true)
		s := m.State()["s"]
		t0, _ := m.Universe().Lookup("t0")
		m.Snapshot()
		appendBytes := allocated(func() { s.Add(relation.Tuple{t0, t0}) }) // nothing leads into t0
		m.Snapshot()
		removeBytes := allocated(func() { s.Remove(relation.Tuple{t0, t0}) })
		table, indexes := appendBytes-chunkBytes, removeBytes-appendBytes
		// The update moves 20 tuples of s and 2 of E, and E has a key table
		// and indexes of its own, one chunk's worth at either size.
		arena, maxArena := published-c.plain-table-indexes, uint64((20+2+2)*chunkBytes)
		t.Logf("%d tuples: %d bytes per update and publish = %d update + %d key table of s + %d indexes of s + %d arena and E",
			s.Len(), published, c.plain, table, indexes, arena)
		if arena > maxArena {
			t.Errorf("%d tuples: publishing costs the arena %d bytes per update, want at most %d: it follows the relation, not the change",
				s.Len(), arena, maxArena)
		}
	}
}

// sinkChain adds the chain t0→…→t9 to db — ten vertices nothing else
// leads into — for a test to hang off one vertex or another.
func sinkChain(db *relation.Database, vertexPred string) {
	for i := 0; i < 10; i++ {
		if i < 9 {
			db.AddFact("E", fmt.Sprintf("t%d", i), fmt.Sprintf("t%d", i+1))
		}
		if vertexPred != "" {
			db.AddFact(vertexPred, fmt.Sprintf("t%d", i))
		}
	}
}

// TestNegationStratumCostFollowsChange is TestUpdateCostFollowsChange
// one stratum up, on serve-write's program: unreach, the negation
// stratum, is maintained by DRed from the change of s below it, and
// what its pass reads of s — the old world — is an overlay on s as it
// is, never a copy of s.  The swap moves the end of a ten-vertex chain
// from one sink to another: ten s tuples and ten unreach tuples go, ten
// of each come, whether V has 60 vertices or 600 and unreach 3 thousand
// tuples or 300 thousand.
func TestNegationStratumCostFollowsChange(t *testing.T) {
	perUpdate := func(n int) (bytes uint64, tuples int) {
		rng := rand.New(rand.NewSource(1))
		db := relation.NewDatabase()
		for v := 0; v < n; v++ {
			db.AddFact("V", graphs.VertexName(v))
			for w := 0; v < n-2 && w < n; w++ { // the last two vertices are sinks
				if v != w && rng.Float64() < 2.4/float64(n) {
					db.AddFact("E", graphs.VertexName(v), graphs.VertexName(w))
				}
			}
		}
		sinkChain(db, "V")
		db.AddFact("E", "t9", graphs.VertexName(n-1))
		prog := parser.MustProgram(tcSrc + "\nunreach(X,Y) :- V(X), V(Y), !s(X,Y).")
		setProcs(t, 1)
		m, err := incr.New(prog, db, core.Stratified)
		if err != nil {
			t.Fatal(err)
		}
		into := func(sink int) []incr.Fact {
			return []incr.Fact{{Pred: "E", Args: []string{"t9", graphs.VertexName(sink)}}}
		}
		bytes = medianAlloc(t, m, "strata", false, func(i int) (ins, del []incr.Fact, gained, lost int) {
			return into(n - 2 + i%2), into(n - 1 - i%2), 20, 20
		})
		return bytes, m.State()["s"].Len() + m.State()["unreach"].Len()
	}
	small, smallTuples := perUpdate(60)
	large, largeTuples := perUpdate(600)
	t.Logf("%d tuples: %d bytes per update; %d tuples: %d bytes per update", smallTuples, small, largeTuples, large)
	if large >= 2*small {
		t.Errorf("an update allocates %d bytes on %d tuples and %d bytes on %d: it follows the relations, not the change",
			small, smallTuples, large, largeTuples)
	}
}

// layeredBoard is serve-wf's board, copies times over: each copy has
// 300 positions in two regions of fifteen layers, every position with
// three moves into the next three layers, and in the second region a
// backward move from every third position — those close cycles and
// leave positions undefined.  The copies are disjoint and alike, so the
// alternating fixpoint takes as many stages on ten as on one and only
// the relations grow.  A gadget nothing else touches sits next to them:
// g moves to lost (no move: g wins) or to won (which moves to lost: g
// loses).
func layeredBoard(copies int) *relation.Database {
	const n, width = 300, 10
	half, layers := n/2, n/2/width
	db := relation.NewDatabase()
	for c := 0; c < copies; c++ {
		rng := rand.New(rand.NewSource(1))
		move := func(a, b int) { db.AddFact("move", graphs.VertexName(c*n+a), graphs.VertexName(c*n+b)) }
		for base := 0; base < n; base += half {
			for a := 0; a < half; a++ {
				layer := a / width
				if layer < layers-1 {
					for k := 0; k < 3; k++ {
						to := layer + 1 + rng.Intn(3)
						if to > layers-1 {
							to = layers - 1
						}
						move(base+a, base+to*width+rng.Intn(width))
					}
				}
				if base > 0 && layer > 0 && a%3 == 0 {
					move(base+a, base+rng.Intn(layer*width))
				}
			}
		}
	}
	db.AddFact("move", "won", "lost")
	db.AddFact("move", "g", "lost")
	return db
}

// TestChainCostFollowsChange: the well-founded model of a board of 300
// positions and of one of 3 000, the same one-move-out-one-move-in
// update on both — g's only move goes to a lost or to a won position,
// and g alone changes sides.  Every stage of the chain is maintained
// from that change; none is recomputed, and none copies move or win.
func TestChainCostFollowsChange(t *testing.T) {
	perUpdate := func(copies int) (bytes uint64, tuples, outer int) {
		setProcs(t, 1)
		m, err := incr.New(parser.MustProgram("win(X) :- move(X,Y), !win(Y)."), layeredBoard(copies), core.WellFounded)
		if err != nil {
			t.Fatal(err)
		}
		if wf := m.WF(); wf.Total() || wf.True.Total() == 0 {
			t.Fatalf("%d copies: %d positions won, %d possibly: the board should have all three values", copies, wf.True.Total(), wf.Possible.Total())
		}
		to := func(p string) []incr.Fact { return []incr.Fact{{Pred: "move", Args: []string{"g", p}}} }
		bytes = medianAlloc(t, m, "stages", false, func(i int) (ins, del []incr.Fact, gained, lost int) {
			if i%2 == 0 {
				return to("won"), to("lost"), 0, 1
			}
			return to("lost"), to("won"), 1, 0
		})
		return bytes, m.WF().Possible.Total(), m.WF().Outer
	}
	small, smallTuples, smallOuter := perUpdate(1)
	large, largeTuples, largeOuter := perUpdate(10)
	t.Logf("%d possible wins, %d stage pairs: %d bytes per update; %d possible wins, %d stage pairs: %d bytes per update",
		smallTuples, smallOuter, small, largeTuples, largeOuter, large)
	if largeTuples < 8*smallTuples || smallOuter < 4 || largeOuter != smallOuter {
		t.Fatalf("boards with %d and %d possible wins, chains of %d and %d stage pairs; the test wants ten times the wins on the same chain",
			smallTuples, largeTuples, smallOuter, largeOuter)
	}
	if large >= 2*small {
		t.Errorf("an update allocates %d bytes with %d possible wins and %d bytes with %d: it follows the board, not the change",
			small, smallTuples, large, largeTuples)
	}
}
