package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/fagin"
	"repro/internal/fixpoint"
	"repro/internal/graphs"
	"repro/internal/logic"
	"repro/internal/reductions"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E2",
		Title:  "SATISFIABILITY ⇔ fixpoint existence for π_SAT on D(I)",
		Source: "Theorem 1 + Example 1",
		Run:    runE2,
	})
	register(Experiment{
		ID:     "E3",
		Title:  "general Fagin pipeline: ESO sentence → π_C preserves yes-instances",
		Source: "Theorem 1 (proof construction)",
		Run:    runE3,
	})
	register(Experiment{
		ID:     "E4",
		Title:  "unique satisfying assignment ⇔ unique fixpoint",
		Source: "Theorem 2",
		Run:    runE4,
	})
	register(Experiment{
		ID:     "E6",
		Title:  "3-colorability ⇔ fixpoint existence for π_COL",
		Source: "Lemma 1",
		Run:    runE6,
	})
}

func runE2(w io.Writer, quick bool) error {
	sizes := []int{4, 6, 8, 10, 12}
	seedsPer := 4
	if quick {
		sizes = []int{4, 6, 8}
		seedsPer = 2
	}
	t := newTable(w, "vars", "clauses", "satisfiable", "fixpoint", "fixpoints=models", "t(SAT search)", "check")
	c := &checker{}
	for _, n := range sizes {
		for s := 0; s < seedsPer; s++ {
			inst := workload.Random3SAT(int64(n*100+s), n, 4.26)
			db, err := reductions.SATDatabase(inst)
			if err != nil {
				return err
			}
			in := engine.MustNew(reductions.PiSAT(), db)
			start := time.Now()
			has, st, err := fixpoint.Exists(in)
			if err != nil {
				return err
			}
			dur := time.Since(start)
			models := inst.CountModels()
			want := models > 0

			bij := "-"
			okBij := true
			if n <= 10 {
				cnt, exact, err := fixpoint.Count(in, 0)
				if err != nil {
					return err
				}
				okBij = exact && cnt == models
				bij = fmt.Sprintf("%d=%d", cnt, models)
			}
			okAssign := true
			if has {
				assign := reductions.AssignmentFromFixpoint(inst, db, st)
				okAssign = inst.Eval(assign)
			}
			ok := has == want && okBij && okAssign
			t.row(n, len(inst.Clauses), want, has, bij, ms(dur),
				c.verdict(ok, fmt.Sprintf("n=%d seed=%d", n, s)))
		}
	}
	t.flush()
	return c.err()
}

func runE3(w io.Writer, quick bool) error {
	imp := logic.Implies
	sentences := []struct {
		name string
		e    *logic.ESO
	}{
		{"∀x∃y E(x,y)", &logic.ESO{FO: logic.Forall{Vars: []string{"X"},
			F: logic.Exists{Vars: []string{"Y"}, F: logic.A("E", "X", "Y")}}}},
		{"∃x∀y E(x,y)", &logic.ESO{FO: logic.Exists{Vars: []string{"X"},
			F: logic.Forall{Vars: []string{"Y"}, F: logic.A("E", "X", "Y")}}}},
		{"∃s (s=V)", &logic.ESO{SOVars: []logic.SOVar{{Name: "s", Arity: 1}},
			FO: logic.Forall{Vars: []string{"X"}, F: logic.And{Fs: []logic.Formula{
				imp(logic.A("s", "X"), logic.A("V", "X")),
				imp(logic.A("V", "X"), logic.A("s", "X"))}}}}},
		{"∀xy E(x,y)→E(y,x)", &logic.ESO{FO: logic.Forall{Vars: []string{"X", "Y"},
			F: imp(logic.A("E", "X", "Y"), logic.A("E", "Y", "X"))}}},
	}
	dbSeeds := 4
	if quick {
		dbSeeds = 2
	}
	t := newTable(w, "sentence", "rules", "agreement (D ⊨ Ψ vs fixpoint)", "check")
	c := &checker{}
	for _, sc := range sentences {
		prog, _, err := fagin.Theorem1Program(sc.e)
		if err != nil {
			return err
		}
		agree := 0
		total := 0
		for seed := 0; seed < dbSeeds; seed++ {
			db := e3DB(int64(seed))
			want, _, err := sc.e.EvalWitness(db, 64)
			if err != nil {
				return err
			}
			in, err := engine.New(prog, db.Clone())
			if err != nil {
				return err
			}
			has, _, err := fixpoint.Exists(in)
			if err != nil {
				return err
			}
			total++
			if has == want {
				agree++
			}
		}
		ok := agree == total
		t.row(sc.name, len(prog.Rules), fmt.Sprintf("%d/%d", agree, total),
			c.verdict(ok, sc.name))
	}
	t.flush()
	return c.err()
}

// e3DB draws a small random (E, V) database.
func e3DB(seed int64) *relationDatabase {
	rng := newRNG(seed)
	db := newDB()
	names := []string{"a", "b"}
	for _, nm := range names {
		db.AddConstant(nm)
	}
	db.MustEnsure("E", 2)
	db.MustEnsure("V", 1)
	for _, x := range names {
		if rng.Intn(2) == 0 {
			db.AddFact("V", x)
		}
		for _, y := range names {
			if rng.Intn(3) == 0 {
				db.AddFact("E", x, y)
			}
		}
	}
	return db
}

func runE4(w io.Writer, quick bool) error {
	sizes := []int{4, 6, 8}
	if quick {
		sizes = []int{4, 6}
	}
	t := newTable(w, "instance", "models", "unique fixpoint", "paper", "check")
	c := &checker{}
	for _, n := range sizes {
		cases := []struct {
			name string
			inst *reductions.SATInstance
		}{
			{fmt.Sprintf("unique n=%d", n), workload.UniqueSAT(int64(n), n, n/2)},
			{fmt.Sprintf("forced-sat n=%d", n), workload.ForcedSAT(int64(n), n, 2*n)},
			{fmt.Sprintf("unsat n=%d", n), &reductions.SATInstance{NumVars: n,
				Clauses: [][]int{{1}, {-1}}}},
		}
		for _, cs := range cases {
			db, err := reductions.SATDatabase(cs.inst)
			if err != nil {
				return err
			}
			in := engine.MustNew(reductions.PiSAT(), db)
			unique, _, err := fixpoint.Unique(in)
			if err != nil {
				return err
			}
			models := cs.inst.CountModels()
			ok := unique == (models == 1)
			t.row(cs.name, models, unique, "unique ⇔ exactly one model",
				c.verdict(ok, cs.name))
		}
	}
	t.flush()
	return c.err()
}

func runE6(w io.Writer, quick bool) error {
	type gcase struct {
		name string
		g    *graphs.Graph
	}
	cases := []gcase{
		{"P6 (path)", graphs.Path(6)},
		{"C5 (odd cycle)", graphs.Cycle(5)},
		{"K3", graphs.Complete(3)},
		{"K4", graphs.Complete(4)},
		{"W5 (odd wheel)", graphs.Wheel(5)},
		{"W6 (even wheel)", graphs.Wheel(6)},
	}
	nRandom := 6
	if quick {
		nRandom = 2
	}
	for s := 0; s < nRandom; s++ {
		cases = append(cases, gcase{fmt.Sprintf("G(7,0.3) seed %d", s),
			graphs.Random(newRNG(int64(s)), 7, 0.3)})
	}
	t := newTable(w, "graph", "3-colorable", "fixpoint", "fixpoints=colorings", "check")
	c := &checker{}
	for _, cs := range cases {
		db := cs.g.Database()
		in := engine.MustNew(reductions.PiCOL(), db)
		has, st, err := fixpoint.Exists(in)
		if err != nil {
			return err
		}
		_, want := cs.g.ThreeColoring()

		counts := "-"
		okCount := true
		if cs.g.N() <= 6 {
			cnt, exact, err := fixpoint.Count(in, 0)
			if err != nil {
				return err
			}
			colorings := cs.g.CountThreeColorings()
			okCount = exact && cnt == colorings
			counts = fmt.Sprintf("%d=%d", cnt, colorings)
		}
		okColoring := true
		if has {
			colors := reductions.ColoringFromFixpoint(cs.g, db, st)
			okColoring = cs.g.IsProper3Coloring(colors)
		}
		ok := has == want && okCount && okColoring
		t.row(cs.name, want, has, counts, c.verdict(ok, cs.name))
	}
	t.flush()
	return c.err()
}
