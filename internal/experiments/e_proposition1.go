package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/ifp"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/semantics"
)

func init() {
	register(Experiment{
		ID:     "E12",
		Title:  "Inflationary DATALOG = existential fragment of FO+IFP",
		Source: "Proposition 1",
		Run:    runE12,
	})
}

func runE12(w io.Writer, quick bool) error {
	seeds := 5
	if quick {
		seeds = 2
	}
	t := newTable(w, "query", "direction", "agreement", "stages equal", "check")
	c := &checker{}

	ops := []struct {
		name string
		op   *ifp.Operator
	}{
		{"TC: E(x,y) ∨ ∃z(E(x,z)∧S(z,y))", &ifp.Operator{
			Pred: "s", Arity: 2, FreeVars: []string{"X", "Y"},
			Phi: logic.Or{Fs: []logic.Formula{
				logic.A("E", "X", "Y"),
				logic.Exists{Vars: []string{"Z"}, F: logic.And{Fs: []logic.Formula{
					logic.A("E", "X", "Z"), logic.A("s", "Z", "Y")}}},
			}},
		}},
		{"π₁: ∃y(E(y,x)∧¬S(y))", &ifp.Operator{
			Pred: "t", Arity: 1, FreeVars: []string{"X"},
			Phi: logic.Exists{Vars: []string{"Y"}, F: logic.And{Fs: []logic.Formula{
				logic.A("E", "Y", "X"), logic.Not{F: logic.A("t", "Y")}}}},
		}},
	}

	// Direction 1: FO+IFP operator → DATALOG¬ program, compared against
	// direct iterated model checking.
	for _, oc := range ops {
		prog, err := oc.op.Program()
		if err != nil {
			return err
		}
		agree, stagesOK := 0, true
		for s := 0; s < seeds; s++ {
			g := graphs.Random(newRNG(int64(s+300)), 5, 0.3)
			db := g.Database()
			direct, rounds, err := oc.op.InductiveFixpoint(db)
			if err != nil {
				return err
			}
			in := engine.MustNew(prog, db.Clone())
			res := semantics.Inflationary(in)
			if res.State[oc.op.Pred].Equal(direct) {
				agree++
			}
			if res.Stats.Rounds != rounds {
				stagesOK = false
			}
		}
		ok := agree == seeds && stagesOK
		t.row(oc.name, "IFP → program", fmt.Sprintf("%d/%d", agree, seeds), stagesOK,
			c.verdict(ok, oc.name))
	}

	// Direction 2: DATALOG¬ program → FO+IFP operator.
	progs := []struct {
		name string
		src  string
	}{
		{"TC program", "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."},
		{"π₁ program", "t(X) :- E(Y,X), !t(Y)."},
	}
	for _, pc := range progs {
		prog := parser.MustProgram(pc.src)
		op, err := ifp.FromProgram(prog)
		if err != nil {
			return err
		}
		agree := 0
		for s := 0; s < seeds; s++ {
			g := graphs.Random(newRNG(int64(s+400)), 5, 0.3)
			db := g.Database()
			direct, _, err := op.InductiveFixpoint(db)
			if err != nil {
				return err
			}
			in := engine.MustNew(prog, db.Clone())
			res := semantics.Inflationary(in)
			if res.State[op.Pred].Equal(direct) {
				agree++
			}
		}
		ok := agree == seeds
		t.row(pc.name, "program → IFP", fmt.Sprintf("%d/%d", agree, seeds), "-",
			c.verdict(ok, pc.name))
	}
	t.flush()
	fmt.Fprintln(w, "    note: both translation directions of Proposition 1, with the direct")
	fmt.Fprintln(w, "    iterated-model-checking evaluator as the independent oracle.")
	return c.err()
}
