// Package graphs provides the directed-graph families the paper's
// examples and experiments run on — paths Lₙ, cycles Cₙ, disjoint
// cycle unions Gₙ, wheels, complete and random graphs — together with
// the baseline algorithms the DATALOG¬ results are validated against:
// BFS path distances (Proposition 2's distance query) and a
// backtracking 3-coloring oracle (Lemma 1 and Theorem 4).
package graphs

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// Graph is a directed graph on vertices 0..n-1.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds the directed edge u→v.  It panics on out-of-range
// endpoints.  Duplicate edges collapse.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphs: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
}

// Edges returns all edges in deterministic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// Database converts the graph to a database with the binary relation
// E over constants "v0".."v{n-1}".  Every vertex is interned even if
// isolated.
func (g *Graph) Database() *relation.Database {
	db := relation.NewDatabase()
	for v := 0; v < g.n; v++ {
		db.AddConstant(fmt.Sprintf("v%d", v))
	}
	for _, e := range g.Edges() {
		db.AddFact("E", fmt.Sprintf("v%d", e[0]), fmt.Sprintf("v%d", e[1]))
	}
	return db
}

// VertexName returns the database constant name of vertex v.
func VertexName(v int) string { return fmt.Sprintf("v%d", v) }

// --- families -----------------------------------------------------------

// Path returns the paper's Lₙ: vertices 0..n-1 with edges i→i+1.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the paper's Cₙ: the directed cycle on n vertices.
func Cycle(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// DisjointCycles returns the paper's Gₙ generalized: copies disjoint
// directed cycles, each of the given length.
func DisjointCycles(copies, length int) *Graph {
	g := New(copies * length)
	for c := 0; c < copies; c++ {
		base := c * length
		for i := 0; i < length; i++ {
			g.AddEdge(base+i, base+(i+1)%length)
		}
	}
	return g
}

// Complete returns the complete directed graph (no self-loops).
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Wheel returns the wheel W_k: hub 0 joined (symmetrically) to a
// symmetric cycle on 1..k.  For odd k the wheel is not 3-colorable.
func Wheel(k int) *Graph {
	g := New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddEdge(0, i)
		g.AddEdge(i, 0)
		next := i%k + 1
		g.AddEdge(i, next)
		g.AddEdge(next, i)
	}
	return g
}

// Random returns a G(n, p) digraph (no self-loops) drawn from rng.
func Random(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Grid returns an r×c grid with edges right and down — a DAG with long
// shortest paths, useful for distance benchmarks.
func Grid(r, c int) *Graph {
	g := New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				g.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return g
}

// --- baselines ----------------------------------------------------------

// Distances returns d[u][v] = length of the shortest directed path
// from u to v using at least one edge (the distance notion of
// Proposition 2), or -1 if none exists.
func (g *Graph) Distances() [][]int {
	d := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		d[u] = make([]int, g.n)
		for v := range d[u] {
			d[u][v] = -1
		}
		// BFS seeded with the out-neighbours at distance 1.
		queue := make([]int, 0, g.n)
		for _, v := range g.adj[u] {
			if d[u][v] < 0 {
				d[u][v] = 1
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[x] {
				if d[u][v] < 0 {
					d[u][v] = d[u][x] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return d
}

// TransitiveClosure returns reach[u][v] = whether a path of ≥ 1 edge
// leads from u to v.
func (g *Graph) TransitiveClosure() [][]bool {
	d := g.Distances()
	out := make([][]bool, g.n)
	for u := range d {
		out[u] = make([]bool, g.n)
		for v := range d[u] {
			out[u][v] = d[u][v] > 0
		}
	}
	return out
}

// ThreeColoring searches for a proper 3-coloring treating edges as
// symmetric constraints (the constraint the paper's π_COL enforces).
// It returns the coloring (values 0,1,2 indexed by vertex) or ok=false.
// A self-loop makes the graph uncolorable.
func (g *Graph) ThreeColoring() (colors []int, ok bool) {
	colors = make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	// Symmetric adjacency for constraint checks.
	nbr := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u == v {
				return nil, false
			}
			nbr[u] = append(nbr[u], v)
			nbr[v] = append(nbr[v], u)
		}
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.n {
			return true
		}
		for c := 0; c < 3; c++ {
			okc := true
			for _, w := range nbr[v] {
				if colors[w] == c {
					okc = false
					break
				}
			}
			if okc {
				colors[v] = c
				if rec(v + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	if rec(0) {
		return colors, true
	}
	return nil, false
}

// IsProper3Coloring verifies a coloring against the symmetric edge
// constraints.
func (g *Graph) IsProper3Coloring(colors []int) bool {
	if len(colors) != g.n {
		return false
	}
	for _, c := range colors {
		if c < 0 || c > 2 {
			return false
		}
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u == v || colors[u] == colors[v] {
				return false
			}
		}
	}
	return true
}

// CountThreeColorings counts all proper 3-colorings (ordered, i.e.
// colors are distinguishable) by backtracking.
func (g *Graph) CountThreeColorings() int {
	colors := make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	nbr := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u == v {
				return 0
			}
			nbr[u] = append(nbr[u], v)
			nbr[v] = append(nbr[v], u)
		}
	}
	count := 0
	var rec func(v int)
	rec = func(v int) {
		if v == g.n {
			count++
			return
		}
		for c := 0; c < 3; c++ {
			okc := true
			for _, w := range nbr[v] {
				if colors[w] == c {
					okc = false
					break
				}
			}
			if okc {
				colors[v] = c
				rec(v + 1)
				colors[v] = -1
			}
		}
	}
	rec(0)
	return count
}
