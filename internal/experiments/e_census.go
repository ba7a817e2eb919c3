package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixpoint"
	"repro/internal/graphs"
	"repro/internal/parser"
)

const pi1Src = "t(X) :- E(Y,X), !t(Y)."

func init() {
	register(Experiment{
		ID:     "E1",
		Title:  "π₁ fixpoint census on paths, cycles, and disjoint cycles",
		Source: "Section 2 (the Lₙ / Cₙ / Gₙ examples)",
		Run:    runE1,
	})
	register(Experiment{
		ID:     "E5",
		Title:  "least-fixpoint existence via intersection of all fixpoints",
		Source: "Theorem 3 and its criterion",
		Run:    runE5,
	})
}

func runE1(w io.Writer, quick bool) error {
	maxN := 9
	maxCopies := 6
	if quick {
		maxN, maxCopies = 6, 3
	}
	t := newTable(w, "database", "fixpoints", "unique", "least", "paper", "check")
	c := &checker{}

	analyze := func(g *graphs.Graph) (count int, unique, least bool) {
		in := engine.MustNew(parser.MustProgram(pi1Src), g.Database())
		cnt, _, err := fixpoint.Count(in, 0)
		if err != nil {
			panic(err)
		}
		res, err := fixpoint.Least(in)
		if err != nil {
			panic(err)
		}
		return cnt, cnt == 1, res.Exists
	}

	for n := 2; n <= maxN; n++ {
		cnt, unique, least := analyze(graphs.Path(n))
		ok := cnt == 1 && unique && least
		t.row(fmt.Sprintf("L%d (path)", n), cnt, unique, least,
			"unique fixpoint {2,4,…}", c.verdict(ok, fmt.Sprintf("L%d", n)))
	}
	for n := 3; n <= maxN; n++ {
		cnt, unique, least := analyze(graphs.Cycle(n))
		var ok bool
		var claim string
		if n%2 == 1 {
			ok = cnt == 0 && !least
			claim = "no fixpoint"
		} else {
			ok = cnt == 2 && !unique && !least
			claim = "two incomparable fixpoints"
		}
		t.row(fmt.Sprintf("C%d (cycle)", n), cnt, unique, least, claim,
			c.verdict(ok, fmt.Sprintf("C%d", n)))
	}
	for m := 1; m <= maxCopies; m++ {
		cnt, _, least := analyze(graphs.DisjointCycles(m, 4))
		ok := cnt == 1<<m && !least
		t.row(fmt.Sprintf("G%d (%d×C4)", m, m), cnt, cnt == 1, least,
			fmt.Sprintf("2^%d fixpoints, no least", m), c.verdict(ok, fmt.Sprintf("G%d", m)))
	}
	t.flush()
	return c.err()
}

func runE5(w io.Writer, quick bool) error {
	maxCopies := 6
	if quick {
		maxCopies = 3
	}
	t := newTable(w, "database", "program", "fixpoints", "least exists", "time", "paper", "check")
	c := &checker{}

	// Positive TC program: least fixpoint always exists and equals TC.
	tcSrc := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	for _, n := range []int{3, 4} {
		g := graphs.Path(n)
		in := engine.MustNew(parser.MustProgram(tcSrc), g.Database())
		start := time.Now()
		res, err := fixpoint.Least(in)
		if err != nil {
			return err
		}
		lfp, err := core.Eval(in.Program(), g.Database(), core.LFP)
		if err != nil {
			return err
		}
		ok := res.Exists && res.State.Equal(lfp.State)
		t.row(fmt.Sprintf("L%d", n), "TC", res.NumFixpoints, res.Exists, ms(time.Since(start)),
			"least = TC (monotone Θ)", c.verdict(ok, fmt.Sprintf("TC L%d", n)))
	}

	// π₁ on Lₙ: unique fixpoint, hence least.
	for _, n := range []int{4, 6} {
		in := engine.MustNew(parser.MustProgram(pi1Src), graphs.Path(n).Database())
		start := time.Now()
		res, err := fixpoint.Least(in)
		if err != nil {
			return err
		}
		ok := res.Exists && res.NumFixpoints == 1
		t.row(fmt.Sprintf("L%d", n), "π₁", res.NumFixpoints, res.Exists, ms(time.Since(start)),
			"unique ⇒ least", c.verdict(ok, fmt.Sprintf("π₁ L%d", n)))
	}

	// π₁ on Gₘ: 2^m pairwise incomparable fixpoints, intersection not a
	// fixpoint, cost grows with the fixpoint count (the exponential
	// enumeration Theorem 3's hardness predicts).
	for m := 1; m <= maxCopies; m++ {
		in := engine.MustNew(parser.MustProgram(pi1Src), graphs.DisjointCycles(m, 4).Database())
		start := time.Now()
		res, err := fixpoint.Least(in)
		if err != nil {
			return err
		}
		ok := !res.Exists && res.NumFixpoints == 1<<m && res.Intersection.Total() == 0
		t.row(fmt.Sprintf("G%d", m), "π₁", res.NumFixpoints, res.Exists, ms(time.Since(start)),
			"∩ of fixpoints = ∅, not a fixpoint", c.verdict(ok, fmt.Sprintf("G%d", m)))
	}
	t.flush()
	return c.err()
}
