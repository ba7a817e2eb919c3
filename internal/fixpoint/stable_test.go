package fixpoint

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

func TestStableWinMovePath(t *testing.T) {
	// 1→2→3: the unique stable model is the well-founded total model
	// {win(2)}.
	db := relation.NewDatabase()
	db.AddFact("move", "1", "2")
	db.AddFact("move", "2", "3")
	in := engine.MustNew(parser.MustProgram("win(X) :- move(X,Y), !win(Y)."), db)
	var models []engine.State
	count, complete, err := StableModels(in, 0, func(s engine.State) bool {
		models = append(models, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 1 {
		t.Fatalf("count=%d complete=%v", count, complete)
	}
	two, _ := db.Universe().Lookup("2")
	if models[0]["win"].Len() != 1 || !models[0]["win"].Has(relation.Tuple{two}) {
		t.Errorf("stable model = %v", models[0].Format(db.Universe()))
	}
	// And it agrees with the (total) well-founded model.
	wf := semantics.WellFounded(in)
	if !wf.Total() || !wf.True.Equal(models[0]) {
		t.Error("stable model disagrees with total WF model")
	}
}

func TestStableTwoCycleHasTwoModels(t *testing.T) {
	// a↔b: two stable models {win(a)} and {win(b)}; WF leaves both
	// undefined — the classic divergence.
	db := relation.NewDatabase()
	db.AddFact("move", "a", "b")
	db.AddFact("move", "b", "a")
	in := engine.MustNew(parser.MustProgram("win(X) :- move(X,Y), !win(Y)."), db)
	count, complete, err := StableModels(in, 0, func(s engine.State) bool {
		if s["win"].Len() != 1 {
			t.Errorf("stable model size %d", s["win"].Len())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 2 {
		t.Errorf("count=%d complete=%v, want 2", count, complete)
	}
}

func TestStableSupportedButNotStable(t *testing.T) {
	// p ← p has the fixpoints ∅ and {p}; only ∅ is stable (the reduct
	// cannot justify p).  This separates the paper's fixpoint semantics
	// from stable models.
	db := relation.NewDatabase()
	db.AddConstant("a")
	in := engine.MustNew(parser.MustProgram("p(X) :- p(X)."), db)
	fps, _, err := Count(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fps != 2 {
		t.Fatalf("fixpoints = %d, want 2", fps)
	}
	count, complete, err := StableModels(in, 0, func(s engine.State) bool {
		if s["p"].Len() != 0 {
			t.Errorf("non-empty stable model: %v", s.Format(db.Universe()))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 1 {
		t.Errorf("count=%d complete=%v, want 1", count, complete)
	}
}

func TestStableNoModels(t *testing.T) {
	// p ← ¬p: no fixpoint, hence no stable model.
	db := relation.NewDatabase()
	db.AddConstant("a")
	in := engine.MustNew(parser.MustProgram("p(X) :- !p(X)."), db)
	count, complete, err := StableModels(in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 0 {
		t.Errorf("count=%d complete=%v, want 0", count, complete)
	}
}

func TestStablePositiveProgramIsLFP(t *testing.T) {
	// For a positive program the unique stable model is the least
	// fixpoint, even though Θ has other (supported) fixpoints.
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	db := pathDB(3)
	in := engine.MustNew(parser.MustProgram(src), db)
	lfp, err := semantics.LeastFixpoint(in)
	if err != nil {
		t.Fatal(err)
	}
	count, complete, err := StableModels(in, 0, func(s engine.State) bool {
		if !s.Equal(lfp.State) {
			t.Errorf("stable model ≠ LFP")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 1 {
		t.Errorf("count=%d complete=%v, want 1", count, complete)
	}
}

func TestStablePi1EvenCycle(t *testing.T) {
	// π₁'s two fixpoints on C4 (the independent-set "kernels") are both
	// stable.
	in := engine.MustNew(parser.MustProgram(pi1Src), cycleDB(4))
	count, complete, err := StableModels(in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !complete || count != 2 {
		t.Errorf("count=%d complete=%v, want 2", count, complete)
	}
}

func TestStableLimit(t *testing.T) {
	in := engine.MustNew(parser.MustProgram(pi1Src), disjointCyclesDB(3, 4))
	count, complete, err := StableModels(in, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if complete || count != 3 {
		t.Errorf("count=%d complete=%v, want 3 capped", count, complete)
	}
}
