package graphs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func hasEdge(g *Graph, u, v int) bool {
	for _, e := range g.Edges() {
		if e == [2]int{u, v} {
			return true
		}
	}
	return false
}

func TestFamilies(t *testing.T) {
	if g := Path(5); g.NumEdges() != 4 || !hasEdge(g, 0, 1) || hasEdge(g, 1, 0) {
		t.Error("Path wrong")
	}
	if g := Cycle(5); g.NumEdges() != 5 || !hasEdge(g, 4, 0) {
		t.Error("Cycle wrong")
	}
	if g := Complete(4); g.NumEdges() != 12 || hasEdge(g, 2, 2) {
		t.Error("Complete wrong")
	}
	if g := DisjointCycles(3, 4); g.N() != 12 || g.NumEdges() != 12 || hasEdge(g, 3, 4) {
		t.Error("DisjointCycles wrong")
	}
	if g := Grid(2, 3); g.NumEdges() != 7 {
		t.Errorf("Grid edges = %d, want 7", g.NumEdges())
	}
}

func TestAddEdgeDedupAndBounds(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if g.NumEdges() != 1 {
		t.Error("duplicate edge not collapsed")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge did not panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestDatabase(t *testing.T) {
	g := Path(3)
	db := g.Database()
	if db.Universe().Size() != 3 {
		t.Errorf("universe = %d", db.Universe().Size())
	}
	if db.Relation("E").Len() != 2 {
		t.Errorf("|E| = %d", db.Relation("E").Len())
	}
	// Isolated vertices still interned.
	db2 := New(4).Database()
	if db2.Universe().Size() != 4 {
		t.Errorf("isolated universe = %d", db2.Universe().Size())
	}
}

func TestDistancesPath(t *testing.T) {
	d := Path(4).Distances()
	want := map[[2]int]int{
		{0, 1}: 1, {0, 2}: 2, {0, 3}: 3,
		{1, 2}: 1, {1, 3}: 2, {2, 3}: 1,
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			exp, ok := want[[2]int{u, v}]
			if !ok {
				exp = -1
			}
			if d[u][v] != exp {
				t.Errorf("d[%d][%d] = %d, want %d", u, v, d[u][v], exp)
			}
		}
	}
}

func TestDistancesCycleSelf(t *testing.T) {
	// On C₄ every vertex reaches itself in exactly 4 steps (≥1-edge
	// distance, not 0).
	d := Cycle(4).Distances()
	for v := 0; v < 4; v++ {
		if d[v][v] != 4 {
			t.Errorf("d[%d][%d] = %d, want 4", v, v, d[v][v])
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	tc := Path(3).TransitiveClosure()
	if !tc[0][2] || tc[2][0] || tc[0][0] {
		t.Errorf("TC wrong: %v", tc)
	}
}

func TestThreeColoring(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path", Path(5), true},
		{"odd cycle", Cycle(5), true},  // 3-colorable (needs 3)
		{"even cycle", Cycle(6), true}, // 2-colorable
		{"K3", Complete(3), true},
		{"K4", Complete(4), false},
		{"odd wheel", Wheel(5), false}, // hub + odd cycle needs 4
		{"even wheel", Wheel(6), true},
		{"empty", New(3), true},
	}
	for _, c := range cases {
		colors, ok := c.g.ThreeColoring()
		if ok != c.want {
			t.Errorf("%s: colorable = %v, want %v", c.name, ok, c.want)
		}
		if ok && !c.g.IsProper3Coloring(colors) {
			t.Errorf("%s: returned coloring invalid", c.name)
		}
	}
}

func TestSelfLoopUncolorable(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	if _, ok := g.ThreeColoring(); ok {
		t.Error("self-loop graph colorable")
	}
	if g.CountThreeColorings() != 0 {
		t.Error("self-loop graph has colorings")
	}
}

func TestCountThreeColorings(t *testing.T) {
	// K3 has 3! = 6 proper colorings; a single edge has 3·2=6; an empty
	// 2-vertex graph has 9.
	if got := Complete(3).CountThreeColorings(); got != 6 {
		t.Errorf("K3 colorings = %d, want 6", got)
	}
	e := New(2)
	e.AddEdge(0, 1)
	if got := e.CountThreeColorings(); got != 6 {
		t.Errorf("edge colorings = %d, want 6", got)
	}
	if got := New(2).CountThreeColorings(); got != 9 {
		t.Errorf("empty colorings = %d, want 9", got)
	}
}

func TestPropColoringSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, 6, 0.35)
		colors, ok := g.ThreeColoring()
		if !ok {
			// Verify by exhaustive count.
			return g.CountThreeColorings() == 0
		}
		return g.IsProper3Coloring(colors) && g.CountThreeColorings() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropDistanceTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Random(rng, 7, 0.3)
		d := g.Distances()
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				for w := 0; w < g.N(); w++ {
					if d[u][v] > 0 && d[v][w] > 0 {
						if d[u][w] < 0 || d[u][w] > d[u][v]+d[v][w] {
							return false
						}
					}
				}
			}
		}
		// Every edge has distance 1.
		for _, e := range g.Edges() {
			if d[e[0]][e[1]] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
