package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graphs"
	"repro/internal/relation"
)

// Join-heavy workloads.
//
// The SAT-style generators above stress the fixpoint decision
// procedures; these stress the operator Θ itself with multi-way joins —
// the workloads the cost-based join planner (engine/planner.go) exists
// for.  Triangle counting is the canonical composite-index case: its
// third literal has both argument positions bound, which a single-
// column probe must finish by per-tuple filtering.  Same-generation is
// the canonical ordering case: its recursive rule joins three literals,
// and under semi-naive evaluation the profitable starting point is the
// delta relation — which only a planner that re-costs per round can
// pick, since syntactically the delta looks like any other IDB literal.

// TriangleSrc closes each directed 3-cycle of E into a tri fact.
const TriangleSrc = `tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).`

// SameGenSrc is the classic same-generation program: two nodes are in
// the same generation if they are flat-related, or if their parents
// are.
const SameGenSrc = `
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).
`

// TriangleDB builds the triangle-counting database: a seeded random
// digraph G(n, p).
func TriangleDB(seed int64, n int, p float64) *relation.Database {
	return graphs.Random(rand.New(rand.NewSource(seed)), n, p).Database()
}

// SameGenDB builds a complete branch-ary tree of the given depth with
// up(child, parent) and down(parent, child) edges, plus flat edges
// between all distinct children of the root — so sg relates every pair
// of equal-depth nodes whose lines of ancestry split at the root.
func SameGenDB(branch, depth int) *relation.Database {
	db := relation.NewDatabase()
	name := func(level, i int) string { return fmt.Sprintf("n%d_%d", level, i) }
	width := 1
	for l := 1; l <= depth; l++ {
		width *= branch
		for i := 0; i < width; i++ {
			child, parent := name(l, i), name(l-1, i/branch)
			db.AddFact("up", child, parent)
			db.AddFact("down", parent, child)
		}
	}
	for i := 0; i < branch; i++ {
		for j := 0; j < branch; j++ {
			if i != j {
				db.AddFact("flat", name(1, i), name(1, j))
			}
		}
	}
	return db
}

// SameGenChains builds the delta-awareness stress shape: a root whose
// children head `live` disjoint descending chains of the given depth,
// flat edges between all distinct root children, and `dead` additional
// chains of the same depth that hang from their own parentless tops —
// ancestry that never reaches a flat edge.  sg then holds only the
// equal-depth cross-live-chain pairs, live·(live-1) new tuples per
// round across `depth` rounds, while the up relation carries
// (live+dead)·depth edges: a planner that does not start each
// semi-naive round at the (tiny) delta relation rescans all of up —
// dead weight included — every round.
func SameGenChains(live, dead, depth int) *relation.Database {
	db := relation.NewDatabase()
	name := func(c, l int) string { return fmt.Sprintf("c%d_%d", c, l) }
	for c := 0; c < live+dead; c++ {
		if c < live {
			db.AddFact("up", name(c, 1), "root")
			db.AddFact("down", "root", name(c, 1))
		}
		for l := 2; l <= depth; l++ {
			db.AddFact("up", name(c, l), name(c, l-1))
			db.AddFact("down", name(c, l-1), name(c, l))
		}
	}
	for i := 0; i < live; i++ {
		for j := 0; j < live; j++ {
			if i != j {
				db.AddFact("flat", name(i, 1), name(j, 1))
			}
		}
	}
	return db
}

// JoinWorkload names one join-heavy workload: a program source and a
// deterministic database generator.
type JoinWorkload struct {
	Name string
	Src  string
	DB   func() *relation.Database
}

// JoinWorkloads returns the join-heavy workload suite `bench -explain`
// prints plans for.  Quick mode shrinks the instances for use under
// `go test`.
func JoinWorkloads(quick bool) []JoinWorkload {
	triN, sgDepth, chainDepth, tcN := 96, 7, 192, 64
	if quick {
		triN, sgDepth, chainDepth, tcN = 24, 5, 48, 32
	}
	return []JoinWorkload{
		{
			Name: fmt.Sprintf("triangle/G(%d,0.15)", triN),
			Src:  TriangleSrc,
			DB:   func() *relation.Database { return TriangleDB(1, triN, 0.15) },
		},
		{
			Name: fmt.Sprintf("same-gen/tree(2,%d)", sgDepth),
			Src:  SameGenSrc,
			DB:   func() *relation.Database { return SameGenDB(2, sgDepth) },
		},
		{
			Name: fmt.Sprintf("same-gen/chains(4+60,%d)", chainDepth),
			Src:  SameGenSrc,
			DB:   func() *relation.Database { return SameGenChains(4, 60, chainDepth) },
		},
		{
			Name: fmt.Sprintf("tc/path(%d)", tcN),
			Src:  "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).",
			DB:   func() *relation.Database { return graphs.Path(tcN).Database() },
		},
	}
}
