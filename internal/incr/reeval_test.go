package incr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// negSrc is serve-write's program: the closure and the negation stratum
// above it.
const negSrc = tcSrc + "\nunreach(X,Y) :- V(X), V(Y), !s(X,Y)."

// ringWithChords is the ring v0→v1→…→v(n−1)→v0 with the chord
// vi→v(i+3) from every even vertex: deleting a ring edge cuts many
// pairs apart, so the deletions outgrow the layer.  The edges are
// returned as the toggle pool.
func ringWithChords(db *relation.Database, n int) [][2]int {
	var pool [][2]int
	for i := 0; i < n; i++ {
		pool = append(pool, [2]int{i, (i + 1) % n})
		if i%2 == 0 {
			pool = append(pool, [2]int{i, (i + 3) % n})
		}
	}
	for _, e := range pool {
		db.AddFact("E", graphs.VertexName(e[0]), graphs.VertexName(e[1]))
	}
	return pool
}

// toggleEdges flips steps random edges of the pool, which all start
// present, one update each, checking every update with checkUpdate, and
// returns the layers the updates maintained and re-evaluated.
func toggleEdges(t *testing.T, m *incr.Maintainer, sem core.Semantics, src string, mirror *relation.Database, pool [][2]int, steps int, wantStrategy string) (maintained, reevaluated int) {
	t.Helper()
	prog := parser.MustProgram(src)
	present := make([]bool, len(pool))
	for i := range present {
		present[i] = true
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < steps; step++ {
		k := rng.Intn(len(pool))
		f := []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(pool[k][0]), graphs.VertexName(pool[k][1])}}}
		var stats *incr.UpdateStats
		if present[k] {
			stats = checkUpdate(t, m, sem, prog, mirror, nil, f, sem == core.WellFounded)
		} else {
			stats = checkUpdate(t, m, sem, prog, mirror, f, nil, sem == core.WellFounded)
		}
		present[k] = !present[k]
		if stats.Strategy != wantStrategy {
			t.Fatalf("step %d: strategy %s, want %s", step, stats.Strategy, wantStrategy)
		}
		maintained += stats.Maintained
		reevaluated += stats.Reevaluated
	}
	return maintained, reevaluated
}

// TestReevaluatedLayerMatchesRecompute toggles edges where the confirmed
// deletions outgrow the layer, so the layer is re-evaluated from
// scratch and its difference written in place: serve-write's program on
// a ring with chords, where a deleted edge cuts much of the strongly
// connected component's closure, and win-move under the well-founded
// semantics on the same cyclic board, where the Γ stages re-evaluate
// against the stage below.  After every update the model must equal a
// recompute (and, well-founded, the independent oracle), and the stats
// must report what it gained and lost — the strata above and the next Γ
// stage consume the re-evaluated layer's difference as its net change.
// On a sink-only toggle stream, serve-read's shape, nothing outgrows
// the bound and every layer stays maintained in place.
func TestReevaluatedLayerMatchesRecompute(t *testing.T) {
	const n, steps = 12, 48
	for _, tc := range []struct {
		name     string
		src      string
		sem      core.Semantics
		strategy string
	}{
		{"scc", negSrc, core.Stratified, "strata"},
		{"winmove", winSrc, core.WellFounded, "alternation"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := relation.NewDatabase()
			for v := 0; v < n; v++ {
				db.AddFact("V", graphs.VertexName(v))
			}
			pool := ringWithChords(db, n)
			m, err := incr.New(parser.MustProgram(tc.src), db, tc.sem)
			if err != nil {
				t.Fatal(err)
			}
			maintained, reevaluated := toggleEdges(t, m, tc.sem, tc.src, db.Clone(), pool, steps, tc.strategy)
			t.Logf("%d layers maintained by DRed, %d re-evaluated", maintained, reevaluated)
			if reevaluated == 0 {
				t.Errorf("no layer re-evaluated in %d toggles: the test does not reach the bound", steps)
			}
		})
	}

	t.Run("sinks", func(t *testing.T) {
		const n, sinks = 30, 6
		rng := rand.New(rand.NewSource(1))
		db := relation.NewDatabase()
		var pool [][2]int
		for a := 0; a < n-sinks; a++ {
			for b := 0; b < n; b++ {
				if a != b && rng.Float64() < 0.15 {
					db.AddFact("E", graphs.VertexName(a), graphs.VertexName(b))
					if b >= n-sinks {
						pool = append(pool, [2]int{a, b})
					}
				}
			}
		}
		if len(pool) < 10 {
			t.Fatalf("%d edges into sinks; the test wants a pool of at least 10", len(pool))
		}
		m, err := incr.New(parser.MustProgram(tcSrc), db, core.LFP)
		if err != nil {
			t.Fatal(err)
		}
		maintained, reevaluated := toggleEdges(t, m, core.LFP, tcSrc, db.Clone(), pool, steps, "strata")
		if reevaluated != 0 || maintained != steps {
			t.Errorf("sink toggles: %d layers maintained, %d re-evaluated; want %d and 0", maintained, reevaluated, steps)
		}
	})
}

// TestCompleteDigraphEdgeDeleteChangesNothing deletes one edge of the
// complete digraph on 8 vertices under the closure: every pair stays
// reachable by a detour, so the update changes nothing.  The candidates
// are the 8 closure tuples the edge supported directly; the support
// check keeps all but the edge's own tuple, whose level-1 derivation
// is gone, and that one comes back through a detour, so no layer is
// re-evaluated and the net change is empty.  DRed without levels
// overdeletes nearly the whole 64-tuple closure here.
func TestCompleteDigraphEdgeDeleteChangesNothing(t *testing.T) {
	const n = 8
	db := relation.NewDatabase()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				db.AddFact("E", graphs.VertexName(a), graphs.VertexName(b))
			}
		}
	}
	m, err := incr.New(parser.MustProgram(tcSrc), db, core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Update(nil, []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(0), graphs.VertexName(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%s +%d -%d maintained %d re-evaluated %d", stats.Strategy, stats.InsertedIDB, stats.DeletedIDB, stats.Maintained, stats.Reevaluated); got != "strata +0 -0 maintained 1 re-evaluated 0" {
		t.Errorf("update reported %s, want strata +0 -0 maintained 1 re-evaluated 0", got)
	}
	if s := m.State()["s"].Len(); s != n*n {
		t.Errorf("closure holds %d tuples, want %d", s, n*n)
	}
	if err := m.CheckLevels(); err != nil {
		t.Error(err)
	}
}

// TestRecomputeReportsExactChange: an update answered by a from-scratch
// evaluation reports what the state gained and lost, not its net size
// change.  Each update swaps one derived tuple for another, which the
// size change reads as 0/0: a general inflationary program (every
// update recomputes), and universe growth under an unsafe rule.
func TestRecomputeReportsExactChange(t *testing.T) {
	fact := func(pred string, args ...string) []incr.Fact {
		return []incr.Fact{{Pred: pred, Args: args}}
	}
	for _, tc := range []struct {
		name     string
		src      string
		sem      core.Semantics
		facts    string
		ins, del []incr.Fact
	}{
		// Under the inflationary semantics win holds every position
		// with a move: a's move is swapped for c's.
		{"stages", winSrc, core.Inflationary, "E(a,b).", fact("E", "c", "d"), fact("E", "a", "b")},
		// t is the universe minus E's loops: t(a) goes, t(c) comes,
		// and the fresh b enters the universe with a loop.
		{"unsafe", "t(X) :- !E(X,X).", core.LFP, "E(c,c). F(a).", append(fact("E", "a", "a"), fact("E", "b", "b")...), fact("E", "c", "c")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := parser.Facts(tc.facts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := incr.New(parser.MustProgram(tc.src), db, tc.sem)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := m.Update(tc.ins, tc.del)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%s +%d -%d", stats.Strategy, stats.InsertedIDB, stats.DeletedIDB); got != "recompute +1 -1" {
				t.Errorf("update reported %s, want recompute +1 -1", got)
			}
		})
	}
}

// BenchmarkStrataUpdateSCC maintains serve-write's program over a
// G(60, 0.04) graph, whose large strongly connected component gives a
// deleted edge candidates across most of the closure: each op deletes one
// present edge and inserts one absent edge of a pool of 128, as
// serve-write's updates do.
func BenchmarkStrataUpdateSCC(b *testing.B) {
	const n = 60
	rng := rand.New(rand.NewSource(1))
	g := graphs.Random(rng, n, 0.04)
	db := g.Database()
	for v := 0; v < n; v++ {
		db.AddFact("V", graphs.VertexName(v))
	}
	m, err := incr.New(parser.MustProgram(negSrc), db, core.Stratified)
	if err != nil {
		b.Fatal(err)
	}
	present := g.Edges()
	taken := make(map[[2]int]bool)
	for _, e := range present {
		taken[e] = true
	}
	rng.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
	present = present[:64]
	var absent [][2]int
	for len(absent) < 64 {
		if e := [2]int{rng.Intn(n), rng.Intn(n)}; e[0] != e[1] && !taken[e] {
			taken[e] = true
			absent = append(absent, e)
		}
	}
	fact := func(e [2]int) []incr.Fact {
		return []incr.Fact{{Pred: "E", Args: []string{graphs.VertexName(e[0]), graphs.VertexName(e[1])}}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, a := rng.Intn(len(present)), rng.Intn(len(absent))
		if _, err := m.Update(fact(absent[a]), fact(present[p])); err != nil {
			b.Fatal(err)
		}
		present[p], absent[a] = absent[a], present[p]
	}
}
