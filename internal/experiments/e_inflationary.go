package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/semantics"
)

const (
	tcSrc = `
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
`
	distanceSrc = `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`
	winMoveSrc = "win(X) :- E(X,Y), !win(Y)."
)

func init() {
	register(Experiment{
		ID:     "E7",
		Title:  "SUCCINCT 3-COLORING: circuit-presented graphs, data vs expression blowup",
		Source: "Theorem 4 (+ Lemma 2, [PY86])",
		Run:    runE7,
	})
	register(Experiment{
		ID:     "E8",
		Title:  "inflationary evaluation is PTIME: stage counts and scaling, naive vs semi-naive",
		Source: "Section 4 (the |A|^k stage bound)",
		Run:    runE8,
	})
	register(Experiment{
		ID:     "E9",
		Title:  "inflationary = least fixpoint on DATALOG; Θ^∞ = Θ¹ for π₁",
		Source: "Section 4 (agreement with standard semantics)",
		Run:    runE9,
	})
	register(Experiment{
		ID:     "E10",
		Title:  "the distance query: inflationary computes it, stratified computes TC∧¬TC",
		Source: "Proposition 2",
		Run:    runE10,
	})
	register(Experiment{
		ID:     "E11",
		Title:  "semantics hierarchy: monotonicity failure, well-founded vs stratified/inflationary",
		Source: "Section 5 picture + well-founded comparison",
		Run:    runE11,
	})
}

func runE7(w io.Writer, quick bool) error {
	maxBits := 3
	if quick {
		maxBits = 2
	}
	t := newTable(w, "circuit", "gates", "vertices", "program rules", "fixpoint", "explicit 3-col", "t(succinct)", "t(explicit)", "check")
	c := &checker{}
	for n := 1; n <= maxBits; n++ {
		cases := []struct {
			name string
			sg   *circuit.SuccinctGraph
		}{
			{fmt.Sprintf("cycle 2^%d", n), circuit.CycleGraph(n)},
			{fmt.Sprintf("complete 2^%d", n), circuit.CompleteGraph(n)},
			{fmt.Sprintf("empty 2^%d", n), circuit.EmptyGraph(n)},
		}
		for _, cs := range cases {
			prog, db := reductions.PiSuccinct3Col(cs.sg)
			in, err := engine.New(prog, db)
			if err != nil {
				return err
			}
			startS := time.Now()
			has, _, err := fixpoint.Exists(in)
			if err != nil {
				return err
			}
			durS := time.Since(startS)

			startE := time.Now()
			explicit := reductions.ExplicitGraph(cs.sg)
			_, want := explicit.ThreeColoring()
			durE := time.Since(startE)

			ok := has == want
			t.row(cs.name, cs.sg.C.Size(), cs.sg.NumVertices(), len(prog.Rules),
				has, want, ms(durS), ms(durE), c.verdict(ok, cs.name))
		}
	}
	t.flush()
	fmt.Fprintln(w, "    note: the succinct program is polynomial in the circuit while the")
	fmt.Fprintln(w, "    explicit graph is 2ⁿ vertices — the expression-complexity blowup of Theorem 4.")
	return c.err()
}

func runE8(w io.Writer, quick bool) error {
	sizes := []int{8, 16, 32, 64}
	if quick {
		sizes = []int{8, 16}
	}
	t := newTable(w, "database", "program", "stages", "tuples", "|A|^k bound", "t(naive)", "t(semi-naive)", "check")
	c := &checker{}
	for _, n := range sizes {
		for _, pc := range []struct {
			name string
			src  string
			db   *relation.Database
			k    int
		}{
			{"TC", tcSrc, graphs.Path(n).Database(), 2},
			{"π₁", pi1Src, graphs.Cycle(n).Database(), 1},
		} {
			inN := engine.MustNew(parser.MustProgram(pc.src), pc.db.Clone())
			startN := time.Now()
			naive := naiveInflationary(inN)
			durN := time.Since(startN)

			inS := engine.MustNew(parser.MustProgram(pc.src), pc.db.Clone())
			startS := time.Now()
			resS := semantics.Inflationary(inS)
			durS := time.Since(startS)

			bound := 1
			for i := 0; i < pc.k; i++ {
				bound *= n
			}
			ok := naive.Equal(resS.State) && resS.Stats.Rounds <= bound+1
			t.row(fmt.Sprintf("n=%d", n), pc.name, resS.Stats.Rounds, resS.Stats.Tuples,
				bound, ms(durN), ms(durS),
				c.verdict(ok, fmt.Sprintf("%s n=%d", pc.name, n)))
		}
	}
	t.flush()
	return c.err()
}

// naiveInflationary iterates S ← S ∪ Θ(S) from S = ∅, applying Θ to
// the whole of S at every stage — the paper's stage definition read
// literally, and the baseline of E8's "t(naive)" column.
func naiveInflationary(in *engine.Instance) engine.State {
	cur := in.NewState()
	for {
		d := in.Eval(engine.Spec{Pos: cur, Against: cur})
		if d.Empty() {
			return cur
		}
		cur.UnionDisjoint(d)
	}
}

func runE9(w io.Writer, quick bool) error {
	seeds := 6
	if quick {
		seeds = 3
	}
	t := newTable(w, "database", "inflationary = LFP", "stages", "check")
	c := &checker{}
	for s := 0; s < seeds; s++ {
		g := graphs.Random(newRNG(int64(s)), 8, 0.25)
		in := engine.MustNew(parser.MustProgram(tcSrc), g.Database())
		inf := semantics.Inflationary(in)
		lfp, err := semantics.LeastFixpoint(in)
		if err != nil {
			return err
		}
		okTC := inf.State.Equal(lfp.State) && in.IsFixpoint(lfp.State)
		// Cross-check against BFS transitive closure.
		tc := g.TransitiveClosure()
		want := 0
		for u := range tc {
			for v := range tc[u] {
				if tc[u][v] {
					want++
				}
			}
		}
		okTC = okTC && lfp.State["s"].Len() == want
		t.row(fmt.Sprintf("TC on G(8,0.25) seed %d", s), okTC, inf.Stats.Rounds,
			c.verdict(okTC, fmt.Sprintf("tc seed %d", s)))
	}
	// π₁: Θ^∞ = Θ¹ (one productive stage).
	for _, n := range []int{5, 9} {
		in := engine.MustNew(parser.MustProgram(pi1Src), graphs.Cycle(n).Database())
		res := semantics.Inflationary(in)
		theta1 := in.Apply(in.NewState())
		ok := res.State.Equal(theta1) && res.Stats.Rounds == 2
		t.row(fmt.Sprintf("π₁ on C%d", n), ok, res.Stats.Rounds,
			c.verdict(ok, fmt.Sprintf("pi1 C%d", n)))
	}
	t.flush()
	return c.err()
}

func runE10(w io.Writer, quick bool) error {
	sizes := []int{4, 6, 8}
	seedsPer := 3
	if quick {
		sizes = []int{4, 6}
		seedsPer = 2
	}
	t := newTable(w, "graph", "inflationary = BFS distance", "stratified = TC∧¬TC", "they differ", "check")
	c := &checker{}
	prog := parser.MustProgram(distanceSrc)
	for _, n := range sizes {
		for s := 0; s < seedsPer; s++ {
			g := graphs.Random(newRNG(int64(n*10+s)), n, 0.3)
			db := g.Database()

			in := engine.MustNew(parser.MustProgram(distanceSrc), db.Clone())
			infl := semantics.Inflationary(in)
			strat, err := semantics.Stratified(prog, db)
			if err != nil {
				return err
			}

			dist := g.Distances()
			tc := g.TransitiveClosure()
			u := in.Universe()
			id := func(v int) int {
				x, _ := u.Lookup(graphs.VertexName(v))
				return x
			}
			okInfl, okStrat := true, true
			differ := false
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					for xs := 0; xs < n; xs++ {
						for ys := 0; ys < n; ys++ {
							tuple := relation.Tuple{id(x), id(y), id(xs), id(ys)}
							wantD := dist[x][y] > 0 && (dist[xs][ys] < 0 || dist[x][y] <= dist[xs][ys])
							wantS := tc[x][y] && !tc[xs][ys]
							if infl.State["s3"].Has(tuple) != wantD {
								okInfl = false
							}
							if strat.State["s3"].Has(tuple) != wantS {
								okStrat = false
							}
							if wantD != wantS {
								differ = true
							}
						}
					}
				}
			}
			ok := okInfl && okStrat
			t.row(fmt.Sprintf("G(%d,0.3) seed %d", n, s), okInfl, okStrat, differ,
				c.verdict(ok, fmt.Sprintf("n=%d s=%d", n, s)))
		}
	}
	t.flush()
	fmt.Fprintln(w, "    note: the same rules compute different queries under the two semantics,")
	fmt.Fprintln(w, "    exactly as the end of Section 4 observes.")
	return c.err()
}

func runE11(w io.Writer, quick bool) error {
	t := newTable(w, "case", "observation", "check")
	c := &checker{}

	// (a) Monotonicity failure (the Proposition 2 proof's observation):
	// on G = {0→1→2} with isolated vertices 3,4, D(0,2,3,4) holds
	// (dist(0,2)=2, no path 3→4); adding the edge 3→4 makes
	// dist(3,4)=1 < 2 and the answer flips to false.  Hence no DATALOG
	// program (all of which are monotone) expresses the distance query.
	idx := func(u *relation.Universe, v int) int {
		x, _ := u.Lookup(graphs.VertexName(v))
		return x
	}
	g1 := graphs.New(5)
	g1.AddEdge(0, 1)
	g1.AddEdge(1, 2)
	in1 := engine.MustNew(parser.MustProgram(distanceSrc), g1.Database())
	r1 := semantics.Inflationary(in1)
	u1 := in1.Universe()
	q1 := relation.Tuple{idx(u1, 0), idx(u1, 2), idx(u1, 3), idx(u1, 4)}
	before := r1.State["s3"].Has(q1)

	g2 := graphs.New(5)
	g2.AddEdge(0, 1)
	g2.AddEdge(1, 2)
	g2.AddEdge(3, 4)
	in2 := engine.MustNew(parser.MustProgram(distanceSrc), g2.Database())
	r2 := semantics.Inflationary(in2)
	u2 := in2.Universe()
	q2 := relation.Tuple{idx(u2, 0), idx(u2, 2), idx(u2, 3), idx(u2, 4)}
	after := r2.State["s3"].Has(q2)

	flipped := before && !after
	t.row("distance query non-monotone",
		fmt.Sprintf("D(0,2,3,4): G=%v, G+{3→4}=%v", before, after),
		c.verdict(flipped, "monotonicity"))

	// (b) Well-founded agrees with stratified on a stratified program.
	strat, err := semantics.Stratified(parser.MustProgram(distanceSrc), graphs.Path(4).Database())
	if err != nil {
		return err
	}
	inWF := engine.MustNew(parser.MustProgram(distanceSrc), graphs.Path(4).Database())
	wf := semantics.WellFounded(inWF)
	okWF := wf.Total() && wf.True.Equal(strat.State)
	t.row("WF = stratified on stratified program", fmt.Sprintf("total=%v equal=%v", wf.Total(), wf.True.Equal(strat.State)),
		c.verdict(okWF, "wf-strat"))

	// (c) Win-move: WF is three-valued on draws, inflationary is total;
	// they disagree on cycles (the paper's point that different
	// negation semantics give different answers on unstratifiable
	// programs).
	cyc := graphs.Cycle(4).Database()
	inWin := engine.MustNew(parser.MustProgram(winMoveSrc), cyc.Clone())
	wfWin := semantics.WellFounded(inWin)
	inflWin := semantics.Inflationary(engine.MustNew(parser.MustProgram(winMoveSrc), cyc.Clone()))
	okWin := !wfWin.Total() && inflWin.State["win"].Len() == 4 && wfWin.True["win"].Len() == 0
	t.row("win-move on C4", fmt.Sprintf("WF undefined=%d, inflationary |win|=%d",
		wfWin.Undefined()["win"].Len(), inflWin.State["win"].Len()),
		c.verdict(okWin, "winmove"))

	// (d) π₂ as stratified program: S2 = TC × ¬TC (Section 2's example
	// under the Chandra–Harel semantics).
	pi2 := parser.MustProgram(`
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(X,Y,Z,W) :- s1(X,Y), !s1(Z,W).
`)
	res, err := semantics.Stratified(pi2, graphs.Path(3).Database())
	if err != nil {
		return err
	}
	okPi2 := res.State["s1"].Len() == 3 && res.State["s2"].Len() == 3*(9-3)
	t.row("π₂ stratified on L3", fmt.Sprintf("|s1|=%d |s2|=%d", res.State["s1"].Len(), res.State["s2"].Len()),
		c.verdict(okPi2, "pi2"))

	t.flush()
	return c.err()
}
