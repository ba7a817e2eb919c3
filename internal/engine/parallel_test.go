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

// TestParallelPassBytes pins what one pooled semi-naive pass into a
// state allocates.  The round below derives 100k pairs from a
// 200k-tuple delta into the relation the delta is a range of — a
// fixpoint past its peak.  Two workers each derive into an output of
// their own, filtered against the state, and the merge appends each
// output to the state and drops it.  The pass allocates 1.35 times what
// the new tuples take stored as a relation of their own, arena and key
// table, which is what the gate bounds: the worker outputs hold them
// once more, at that cost.  Presized from the previous delta, the
// outputs made the pass 1.8 times its result.  The same pass on one
// worker appends straight into the state, whose dense key table
// already has their slots: it pays their arena alone, a quarter of
// the pooled pass.
func TestParallelPassBytes(t *testing.T) {
	const xs, zs = 400, 500
	db := relation.NewDatabase()
	u := db.Universe()
	half, _ := db.Ensure("half", 2)
	for z := 0; z < zs; z++ {
		half.Add(relation.Tuple{u.Intern(fmt.Sprint("z", z)), u.Intern(fmt.Sprint("y", z/2))})
	}
	for x := 0; x < xs; x++ {
		u.Intern(fmt.Sprint("x", x))
	}
	half.Lookup(0, 0) // the join's index is not the pass's output
	in, err := New(parser.MustProgram("s(X,Y) :- s(X,Z), half(Z,Y)."), db)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(nw int) (uint64, State) {
		s := relation.New(2)
		for x := 0; x < xs; x++ {
			for z := 0; z < zs; z++ {
				xi, _ := u.Lookup(fmt.Sprint("x", x))
				zi, _ := u.Lookup(fmt.Sprint("z", z))
				s.Add(relation.Tuple{xi, zi})
			}
		}
		s.Lookup(1, 0) // nor is the state's
		cur := State{"s": s}
		sp := SemiNaive(State{"s": relation.New(2)}, cur.View(), cur, nil)
		sp.Into = cur
		setProcs(t, nw)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // two cycles empty every sync.Pool: nothing earlier is reused
		runtime.ReadMemStats(&before)
		out := in.Eval(sp)
		runtime.ReadMemStats(&after)
		if out["s"].Len() != xs*zs/2 || s.Len() != xs*zs*3/2 {
			t.Fatalf("%d workers: pass appended %d tuples, want %d", nw, out["s"].Len(), xs*zs/2)
		}
		return after.TotalAlloc - before.TotalAlloc, out
	}
	inline, _ := pass(1)
	pooled, out := pass(2)
	copied := allocated(func() { relation.New(2).AppendDisjoint(out["s"]) })
	t.Logf("pooled pass allocated %d bytes; the inline pass %d (%.2fx); the new tuples in a relation of their own %d (%.2fx)",
		pooled, inline, float64(pooled)/float64(inline), copied, float64(pooled)/float64(copied))
	if pooled > 2*copied {
		t.Errorf("pooled pass allocated %d bytes, want at most 2 × %d", pooled, copied)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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
		_, nw := in.schedule(in.tasks(Spec{Pos: s, Deltas: map[string]Delta{"s": {PosDriver: delta}}}), s)
		if inline := nw == 1; inline != c.inline {
			t.Errorf("%d driver tuples: %d workers, want inline %v", c.n, nw, c.inline)
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
