package core

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/semantics"
)

// TestPropLFPIsOneStratum checks that the least fixpoint, which Eval
// computes by strata, is the one-stratum case: on random positive and
// semipositive programs Stratify gives one stratum, and Eval under LFP
// equals the induction over the whole program (semantics.Inflationary)
// in its state and in every statistic — the same plans run the same
// rounds.
func TestPropLFPIsOneStratum(t *testing.T) {
	classes := map[ast.Class]int{}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x1a7e))
		src := randProgram(rng, 1)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		c := prog.Classify()
		if c != ast.ClassPositive && c != ast.ClassSemipositive {
			t.Fatalf("seed %d: program is %v:\n%s", seed, c, src)
		}
		classes[c]++
		strat, err := prog.Stratify()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if n := strat.NumStrata(); n != 1 {
			t.Fatalf("seed %d: %d strata, want 1\n%s", seed, n, src)
		}

		db := randDB(rng, 3+rng.Intn(3))
		got, err := Eval(prog, db, LFP)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		in, err := engine.New(prog, db.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want := semantics.Inflationary(in)
		if !got.State.Equal(want.State) {
			t.Fatalf("seed %d: states differ\nprogram:\n%s\ngot:\n%swant:\n%s", seed, src,
				got.State.Format(got.Universe), want.State.Format(want.Universe))
		}
		if got.Stats != want.Stats {
			t.Fatalf("seed %d: stats differ: got %+v, want %+v\nprogram:\n%s", seed, got.Stats, want.Stats, src)
		}
	}
	for _, c := range []ast.Class{ast.ClassPositive, ast.ClassSemipositive} {
		if classes[c] < 10 {
			t.Errorf("only %d of the programs are %v", classes[c], c)
		}
	}
}
