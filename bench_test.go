// Benchmarks, one per experiment of the reproduction
// (internal/experiments): each BenchmarkEn measures the workload of
// experiment En, and the corresponding table is regenerated by
// `go run ./cmd/bench -exp En`.
package repro_test

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fixpoint"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/semantics"
	"repro/internal/workload"
)

const (
	pi1Src  = "t(X) :- E(Y,X), !t(Y)."
	tcSrc   = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	distSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`
)

// BenchmarkE1FixpointCensus: π₁ fixpoint enumeration on the paper's §2
// families (paths, cycles, disjoint cycles).
func BenchmarkE1FixpointCensus(b *testing.B) {
	for _, g := range []struct {
		name string
		db   func() *graphs.Graph
	}{
		{"L8", func() *graphs.Graph { return graphs.Path(8) }},
		{"C7", func() *graphs.Graph { return graphs.Cycle(7) }},
		{"C8", func() *graphs.Graph { return graphs.Cycle(8) }},
		{"G4x4", func() *graphs.Graph { return graphs.DisjointCycles(4, 4) }},
	} {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(parser.MustProgram(pi1Src), g.db().Database())
				if _, _, err := fixpoint.Count(in, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2SATFixpoint: Theorem 1 — fixpoint existence for π_SAT on
// D(I) via grounding + CDCL, by instance size.
func BenchmarkE2SATFixpoint(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		inst := workload.Random3SAT(int64(n), n, 4.26)
		db, err := reductions.SATDatabase(inst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(reductions.PiSAT(), db.Clone())
				if _, _, err := fixpoint.Exists(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3FaginPipeline: Theorem 1 general form — ESO → SNF → π_C
// compilation plus one fixpoint decision.
func BenchmarkE3FaginPipeline(b *testing.B) {
	experimentsBench(b, "E3")
}

// BenchmarkE4UniqueFixpoint: Theorem 2 — unique-fixpoint decision on
// crafted unique-solution instances.
func BenchmarkE4UniqueFixpoint(b *testing.B) {
	for _, n := range []int{6, 10} {
		inst := workload.UniqueSAT(int64(n), n, n/2)
		db, err := reductions.SATDatabase(inst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(reductions.PiSAT(), db.Clone())
				ok, _, err := fixpoint.Unique(in)
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkE5LeastFixpoint: Theorem 3 — the enumerate-and-intersect
// criterion; cost doubles with each extra cycle (2^m fixpoints).
func BenchmarkE5LeastFixpoint(b *testing.B) {
	for _, m := range []int{2, 4, 6} {
		db := graphs.DisjointCycles(m, 4).Database()
		b.Run(fmt.Sprintf("copies=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(parser.MustProgram(pi1Src), db.Clone())
				res, err := fixpoint.Least(in)
				if err != nil || res.Exists {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkE6ColoringFixpoint: Lemma 1 — π_COL fixpoint existence vs
// graph size.
func BenchmarkE6ColoringFixpoint(b *testing.B) {
	for _, n := range []int{6, 9, 12} {
		g := graphs.Random(newRNG(int64(n)), n, 0.3)
		db := g.Database()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(reductions.PiCOL(), db.Clone())
				if _, _, err := fixpoint.Exists(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Succinct3Col: Theorem 4 — succinct fixpoint decision vs
// explicit expansion + coloring, showing the 2ⁿ blowup.
func BenchmarkE7Succinct3Col(b *testing.B) {
	for _, n := range []int{2, 3} {
		sg := circuit.CycleGraph(n)
		b.Run(fmt.Sprintf("succinct/bits=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, db := reductions.PiSuccinct3Col(sg)
				in := engine.MustNew(prog, db)
				if _, _, err := fixpoint.Exists(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("explicit/bits=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := reductions.ExplicitGraph(sg).ThreeColoring(); !ok {
					b.Fatal("cycle should be colorable")
				}
			}
		})
	}
}

// BenchmarkE8InflationaryPTIME: §4 — inflationary evaluation scaling,
// naive vs semi-naive ablation.
func BenchmarkE8InflationaryPTIME(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		db := graphs.Path(n).Database()
		b.Run(fmt.Sprintf("TC/n=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// S ← S ∪ Θ(S), Θ applied to the whole of S each stage.
				in := engine.MustNew(parser.MustProgram(tcSrc), db.Clone())
				cur := in.NewState()
				for d := in.Eval(engine.Spec{Pos: cur, Against: cur}); !d.Empty(); d = in.Eval(engine.Spec{Pos: cur, Against: cur}) {
					cur.UnionDisjoint(d)
				}
			}
		})
		b.Run(fmt.Sprintf("TC/n=%d/seminaive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				semantics.Inflationary(engine.MustNew(parser.MustProgram(tcSrc), db.Clone()))
			}
		})
	}
}

// BenchmarkE9InflationaryVsLFP: §4 — inflationary vs least-fixpoint
// evaluation of the TC program (they must agree; measures overhead).
func BenchmarkE9InflationaryVsLFP(b *testing.B) {
	g := graphs.Random(newRNG(9), 24, 0.15)
	db := g.Database()
	b.Run("inflationary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := engine.MustNew(parser.MustProgram(tcSrc), db.Clone())
			semantics.Inflationary(in)
		}
	})
	b.Run("lfp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := engine.MustNew(parser.MustProgram(tcSrc), db.Clone())
			if _, err := semantics.LeastFixpoint(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10DistanceQuery: Proposition 2 — the distance program
// under inflationary semantics vs the BFS baseline.
func BenchmarkE10DistanceQuery(b *testing.B) {
	for _, n := range []int{8, 12} {
		g := graphs.Random(newRNG(int64(n)), n, 0.25)
		db := g.Database()
		b.Run(fmt.Sprintf("inflationary/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := engine.MustNew(parser.MustProgram(distSrc), db.Clone())
				semantics.Inflationary(in)
			}
		})
		b.Run(fmt.Sprintf("bfs/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Distances()
			}
		})
	}
}

// BenchmarkE11Hierarchy: well-founded vs inflationary vs stratified on
// win-move and the distance program.  On the stratifiable distance
// program, wellfounded runs core.Eval, which evaluates it as strata,
// and alternating runs the alternating fixpoint it would otherwise take.
func BenchmarkE11Hierarchy(b *testing.B) {
	db := graphs.Cycle(12).Database()
	win := "win(X) :- E(X,Y), !win(Y)."
	b.Run("wellfounded/winmove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := engine.MustNew(parser.MustProgram(win), db.Clone())
			semantics.WellFounded(in)
		}
	})
	b.Run("inflationary/winmove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := engine.MustNew(parser.MustProgram(win), db.Clone())
			semantics.Inflationary(in)
		}
	})
	prog := parser.MustProgram(distSrc)
	gdb := graphs.Path(8).Database()
	b.Run("stratified/distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := semantics.Stratified(prog, gdb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wellfounded/distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Eval(prog, gdb, core.WellFounded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alternating/distance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			semantics.WellFounded(engine.MustNew(prog, gdb.Clone()))
		}
	})
}

// BenchmarkE12Proposition1: Proposition 1 — FO+IFP operator vs compiled
// program round trip.
func BenchmarkE12Proposition1(b *testing.B) {
	experimentsBench(b, "E12")
}

// BenchmarkThetaWorkers: parallel-evaluation ablation — the distance
// program (6 rules, so the worker pool has work to distribute) under
// inflationary semantics with GOMAXPROCS, the pool's width, set to 1 vs
// left at its value.  On a single-core runner the two coincide; the
// benchmark still pins the overhead of the pooled path.
func BenchmarkThetaWorkers(b *testing.B) {
	g := graphs.Random(newRNG(13), 12, 0.25)
	db := g.Database()
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			// Construction is hoisted so the loop times evaluation only;
			// Inflationary starts from a fresh state each call and never
			// mutates the instance or database.
			in, err := engine.New(parser.MustProgram(distSrc), db.Clone())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				semantics.Inflationary(in)
			}
		})
	}
}

// BenchmarkE15FrontierScaling: the GOMAXPROCS sweep behind experiment
// E15 — the 2-rule transitive closure and the distance program on
// worker pools from 1 to GOMAXPROCS wide; intra-rule sharding lets the
// 2-rule program use more workers than it has rules.
func BenchmarkE15FrontierScaling(b *testing.B) {
	cases := []struct {
		name string
		src  string
		db   func() *relation.Database
	}{
		{"tc/G(48,0.06)", tcSrc,
			func() *relation.Database { return graphs.Random(newRNG(48), 48, 0.06).Database() }},
		{"distance/G(14,0.25)", distSrc,
			func() *relation.Database { return graphs.Random(newRNG(14), 14, 0.25).Database() }},
	}
	for _, tc := range cases {
		prog := parser.MustProgram(tc.src)
		db := tc.db()
		for _, nw := range experiments.E15Workers() {
			// The series keep the names they had beside the deleted
			// baseline cell, so the recorded trajectory stays comparable.
			b.Run(fmt.Sprintf("%s/workers=%d/frontier", tc.name, nw), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nw))
				in, err := engine.New(prog, db.Clone())
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					semantics.Inflationary(in)
				}
			})
		}
	}
}

// BenchmarkE16MagicQuery: one point query answered demand-driven
// (magic-set rewriting, the rewrite re-prepared per op like a cold
// server cache) versus full materialization plus a filter — the
// series behind experiment E16's table.  Quick-mode workloads keep
// the full columns affordable under -benchtime.
func BenchmarkE16MagicQuery(b *testing.B) {
	for _, wl := range workload.PointQueryWorkloads(true) {
		prog := parser.MustProgram(wl.Src)
		q, err := magic.ParseQuery(wl.Query)
		if err != nil {
			b.Fatal(err)
		}
		db := wl.DB()
		sem := core.LFP
		if wl.Stratified {
			sem = core.Stratified
		}
		b.Run(wl.Name+"/magic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var res *semantics.QueryResult
				var err error
				if wl.Stratified {
					res, err = semantics.QueryStratified(prog, db, q)
				} else {
					res, err = semantics.QueryLFP(prog, db, q)
				}
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
		b.Run(wl.Name+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.QueryFull(prog, db, q, sem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// experimentsBench runs a whole experiment (quick mode) as one
// benchmark unit, for experiments whose interesting cost is the full
// table.
func experimentsBench(b *testing.B, id string) {
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// BenchmarkE14IncrementalUpdate: single-fact EDB updates maintained
// incrementally (DRed over strata or over the stages of the
// alternating fixpoint) vs a full recompute, on the E8/E10-scale
// workloads of experiment E14.
func BenchmarkE14IncrementalUpdate(b *testing.B) {
	cases := []struct {
		name string
		src  string
		sem  core.Semantics
		db   func() *relation.Database
	}{
		{"tc-path64", tcSrc, core.Inflationary,
			func() *relation.Database { return graphs.Path(64).Database() }},
		{"distance-n12", distSrc, core.Stratified,
			func() *relation.Database { return graphs.Random(newRNG(12), 12, 0.25).Database() }},
		{"winmove-wf-n240", "win(X) :- E(X,Y), !win(Y).", core.WellFounded,
			func() *relation.Database { return graphs.Random(newRNG(9), 240, 2.0/240).Database() }},
	}
	for _, tc := range cases {
		prog := parser.MustProgram(tc.src)
		b.Run(tc.name+"/incr", func(b *testing.B) {
			m, err := incr.New(prog, tc.db(), tc.sem)
			if err != nil {
				b.Fatal(err)
			}
			n := m.Universe().Size()
			rng := newRNG(77)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := incr.Fact{Pred: "E", Args: []string{
					graphs.VertexName(rng.Intn(n)), graphs.VertexName(rng.Intn(n))}}
				var err error
				if i%2 == 0 {
					_, err = m.Update([]incr.Fact{f}, nil)
				} else {
					_, err = m.Update(nil, []incr.Fact{f})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/recompute", func(b *testing.B) {
			db := tc.db()
			n := db.Universe().Size()
			rng := newRNG(77)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := relation.Tuple{
					db.Universe().Intern(graphs.VertexName(rng.Intn(n))),
					db.Universe().Intern(graphs.VertexName(rng.Intn(n)))}
				if i%2 == 0 {
					db.MustEnsure("E", 2).Add(t)
				} else {
					db.MustEnsure("E", 2).Remove(t)
				}
				if _, err := core.Eval(prog, db, tc.sem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
