package workload

import (
	"fmt"

	"repro/internal/graphs"
	"repro/internal/relation"
)

// Point-query workloads.
//
// The join workloads above stress whole-fixpoint evaluation; these
// stress the demand-driven path: one query atom with bound positions,
// answered either by magic-set rewriting (internal/magic via
// core.Query) or by full materialization plus a filter — the ablation pair of experiment E16.
//
// TC appears in both recursion directions on purpose.  The rewrite's
// sideways information passing is textual left-to-right, so the
// left-recursive form s(X,Z), E(Z,Y) keeps the magic set at the seed
// {c} and derives only c's row of the closure, while the
// right-recursive form E(X,Z), s(Z,Y) floods the magic set with every
// vertex reachable from c — demand-driven in name only.  The pair
// makes the SIP sensitivity a measured fact rather than folklore.

// TCLeftSrc is the left-recursive transitive closure, the
// demand-friendly formulation for queries bound on the first column.
const TCLeftSrc = `
s(X,Y) :- E(X,Y).
s(X,Y) :- s(X,Z), E(Z,Y).
`

// TCRightSrc is the right-recursive transitive closure: equivalent
// under full evaluation, adversarial for a bf query's magic sets.
const TCRightSrc = `
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
`

// DistanceStratSrc is the stratified distance program of Proposition 2
// (s3 reads s2 under negation, so s2 must be evaluated in full by any
// sound rewrite).
const DistanceStratSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`

// PointQueryWorkload is one demand-driven query benchmark case.
type PointQueryWorkload struct {
	Name string
	Src  string
	// Query is the query atom in magic.ParseQuery syntax.
	Query string
	// Stratified queries under the stratified semantics, not LFP.
	Stratified bool
	DB         func() *relation.Database
	// Headline marks the row whose speedup experiment E16 asserts.
	Headline bool
}

// PointQueryWorkloads returns the E16 suite.  Quick mode shrinks the
// instances for use under `go test`.
func PointQueryWorkloads(quick bool) []PointQueryWorkload {
	pathN, sgDepth, distN := 256, 9, 16
	if quick {
		pathN, sgDepth, distN = 96, 6, 10
	}
	// Query a vertex three quarters along the path: demand prunes both
	// the sources (only one row of the closure) and the suffix depth.
	src := graphs.VertexName(pathN * 3 / 4)
	return []PointQueryWorkload{
		{
			Name:     fmt.Sprintf("tc-left/path(%d)", pathN),
			Src:      TCLeftSrc,
			Query:    fmt.Sprintf("s(%s, ?)", src),
			DB:       func() *relation.Database { return graphs.Path(pathN).Database() },
			Headline: true,
		},
		{
			Name:  fmt.Sprintf("tc-right/path(%d)", pathN),
			Src:   TCRightSrc,
			Query: fmt.Sprintf("s(%s, ?)", src),
			DB:    func() *relation.Database { return graphs.Path(pathN).Database() },
		},
		{
			Name:     fmt.Sprintf("same-gen/tree(2,%d)", sgDepth),
			Src:      SameGenSrc,
			Query:    fmt.Sprintf("sg(n%d_0, ?)", sgDepth),
			DB:       func() *relation.Database { return SameGenDB(2, sgDepth) },
			Headline: true,
		},
		{
			Name:       fmt.Sprintf("distance/G(%d,0.12)", distN),
			Src:        DistanceStratSrc,
			Query:      fmt.Sprintf("s3(%s, ?, ?, ?)", graphs.VertexName(1)),
			Stratified: true,
			DB: func() *relation.Database {
				// Sparse enough that the closure s2 is not total, so
				// the negated stratum leaves s3 nonempty.
				return TriangleDB(int64(distN), distN, 0.12)
			},
		},
	}
}
