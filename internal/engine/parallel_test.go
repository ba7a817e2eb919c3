package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// multiRuleSrc has several rules (and semi-naive variants) so the
// worker pool actually distributes work.
const multiRuleSrc = `
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
r(X,Y) :- s(X,Y), !E(X,Y).
p(X) :- s(X,X).
q(X) :- E(X,Y), !s(Y,X).
`

// TestEvalSameAtEveryWorkerCount checks the acceptance property of
// the parallel operator: one worker and many workers produce the same
// state, on Θ itself and on the semi-naive delta form.
func TestEvalSameAtEveryWorkerCount(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	for _, seed := range []int64{1, 2, 3} {
		db := randomEdgeDB(rand.New(rand.NewSource(seed)), 9, 0.25)
		setProcs(t, 1)
		in := MustNew(prog, db)

		// Build a few stages serially to obtain realistic inputs.
		s0 := in.NewState()
		s1 := in.Apply(s0)
		s2Input := s1.Clone()
		s2Input.UnionWith(in.Apply(s1))
		delta := s2Input.Diff(s1)
		want0, want2 := in.Apply(s0), in.Apply(s2Input)
		wantSN := in.Eval(SemiNaive(s1, delta, s2Input, nil))

		for _, nw := range []int{2, 4, 8, 16} {
			setProcs(t, nw)
			if got := in.Apply(s0); !got.Equal(want0) {
				t.Fatalf("seed %d workers %d: Apply(∅) differs\ngot:  %v\nwant: %v",
					seed, nw, got.Preds(), want0.Preds())
			}
			if got := in.Apply(s2Input); !got.Equal(want2) {
				t.Fatalf("seed %d workers %d: Apply differs on stage-2 input", seed, nw)
			}
			if got := in.Eval(SemiNaive(s1, delta, s2Input, nil)); !got.Equal(wantSN) {
				t.Fatalf("seed %d workers %d: semi-naive round differs", seed, nw)
			}
		}
	}
}

// TestParallelFixpointMatchesSerial iterates the inflationary operator
// S ∪ Θ(S) to its fixpoint with different worker counts and compares
// the final states, so the parallelism is exercised across a whole
// evaluation rather than a single application.
func TestParallelFixpointMatchesSerial(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	db := randomEdgeDB(rand.New(rand.NewSource(7)), 10, 0.2)

	inflate := func(nw int) State {
		setProcs(t, nw)
		in := MustNew(prog, db.Clone())
		cur := in.NewState()
		for {
			next := cur.Clone()
			if next.UnionWith(in.Apply(cur)) == 0 {
				return next
			}
			cur = next
		}
	}

	want := inflate(1)
	for _, nw := range []int{2, 3, hostProcs + 2} {
		if got := inflate(nw); !got.Equal(want) {
			t.Fatalf("inflationary fixpoint differs with %d workers", nw)
		}
	}
}

// TestConcurrentApplySharedInputs runs many Apply calls concurrently
// against the same instance and input state.  Inputs are only read, so
// this must be race-free (the race job in CI runs this test with -race)
// and every goroutine must get the same answer — it exercises the
// synchronized lazy index build inside Relation from many readers.
func TestConcurrentApplySharedInputs(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	setProcs(t, 4)
	in := MustNew(prog, randomEdgeDB(rand.New(rand.NewSource(11)), 8, 0.3))
	base := in.Apply(in.NewState())

	want := in.Apply(base)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := in.Apply(base); !got.Equal(want) {
				errs <- "concurrent Apply returned a different state"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestParallelPassBytes pins what one parallel semi-naive pass
// allocates besides its result: each worker's output is presized for
// the worker's share of the hint, not for all of it, and the merge
// unions the second worker's output into the first's.  The round below
// derives 100k pairs from a 200k-tuple delta — a fixpoint past its
// peak, where the hint overestimates, so the first worker's output
// already has room for the union.  The pass then allocates the two
// worker outputs, 1.8 times the result's own bytes.  Merging through
// hash buckets concatenated into a fresh relation cost 2.8 times;
// presizing every worker for the whole hint, 4.2 times.
func TestParallelPassBytes(t *testing.T) {
	const xs, zs = 400, 500
	db := relation.NewDatabase()
	u := db.Universe()
	half, _ := db.Ensure("half", 2)
	for z := 0; z < zs; z++ {
		half.Add(relation.Tuple{u.Intern(fmt.Sprint("z", z)), u.Intern(fmt.Sprint("y", z/2))})
	}
	delta := relation.New(2)
	for x := 0; x < xs; x++ {
		for z := 0; z < zs; z++ {
			delta.Add(relation.Tuple{u.Intern(fmt.Sprint("x", x)), u.Intern(fmt.Sprint("z", z))})
		}
	}
	half.Lookup(0, 0) // the join's index is not the pass's output
	setProcs(t, 2)
	in, err := New(parser.MustProgram("s(X,Y) :- s(X,Z), half(Z,Y)."), db)
	if err != nil {
		t.Fatal(err)
	}
	d := State{"s": delta}
	sp := SemiNaive(State{"s": relation.New(2)}, d, d, nil)
	sp.Against = d

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // two cycles empty every sync.Pool: nothing earlier is reused
	runtime.ReadMemStats(&before)
	out := in.Eval(sp)
	runtime.ReadMemStats(&after)
	pass := after.TotalAlloc - before.TotalAlloc

	runtime.ReadMemStats(&before)
	copied := relation.New(2)
	copied.ReserveHint(out["s"].Len())
	copied.AppendDisjoint(out["s"])
	runtime.ReadMemStats(&after)
	result := after.TotalAlloc - before.TotalAlloc

	if out["s"].Len() != xs*zs/2 {
		t.Fatalf("pass derived %d tuples, want %d", out["s"].Len(), xs*zs/2)
	}
	t.Logf("pass allocated %d bytes for a %d-tuple result of %d bytes (%.2fx)",
		pass, out["s"].Len(), result, float64(pass)/float64(result))
	if pass > 2*result {
		t.Errorf("pass allocated %d bytes, want at most 2 × %d", pass, result)
	}
}

// TestSmallPassRunsInline pins the work-size floor: with four workers,
// a pass whose driver delta holds fewer than InlineFloor tuples runs on
// the calling goroutine into one output, and a pass at the floor is
// sharded over the pool.
func TestSmallPassRunsInline(t *testing.T) {
	setProcs(t, 4)
	in := MustNew(parser.MustProgram("s(X,Y) :- s(X,Z), E(Z,Y)."), pathDB(3))
	for _, c := range []struct {
		n      int
		inline bool
	}{{InlineFloor - 1, true}, {InlineFloor, false}} {
		delta := relation.New(2)
		for i := 0; i < c.n; i++ {
			delta.Add(relation.Tuple{i, i})
		}
		s := State{"s": delta}
		wos := in.runPool(Spec{Pos: s, Deltas: map[string]Delta{"s": {PosDriver: delta}}})
		if inline := len(wos) == 1; inline != c.inline {
			t.Errorf("%d driver tuples: %d worker outputs, want inline %v", c.n, len(wos), c.inline)
		}
	}
}

// hostProcs is GOMAXPROCS as the test binary started, before any test
// set it.
var hostProcs = runtime.GOMAXPROCS(0)

// setProcs sets GOMAXPROCS, the width of the engine's worker pool, to
// n until the test ends.
func setProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
