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

// TestApplySplitParallelDeterministic checks the acceptance property of
// the parallel operator: one worker and many workers produce the same
// state, on Θ itself and on the semi-naive delta form.
func TestApplySplitParallelDeterministic(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	for _, seed := range []int64{1, 2, 3} {
		db := randomEdgeDB(rand.New(rand.NewSource(seed)), 9, 0.25)
		serial := mustWith(prog, db.Clone(), Options{Workers: 1})

		// Build a few stages serially to obtain realistic inputs.
		s0 := serial.NewState()
		s1 := serial.Apply(s0)
		s2Input := s1.Clone()
		s2Input.UnionWith(serial.Apply(s1))

		for _, nw := range []int{2, 4, 8, 16} {
			par := mustWith(prog, db.Clone(), Options{Workers: nw})
			if got, want := par.Apply(s0), serial.Apply(s0); !got.Equal(want) {
				t.Fatalf("seed %d workers %d: Apply(∅) differs\ngot:  %v\nwant: %v",
					seed, nw, got.Preds(), want.Preds())
			}
			if got, want := par.Apply(s2Input), serial.Apply(s2Input); !got.Equal(want) {
				t.Fatalf("seed %d workers %d: Apply differs on stage-2 input", seed, nw)
			}

			delta := s2Input.Diff(s1)
			got := par.ApplyDelta(s1, delta, s2Input)
			want := serial.ApplyDelta(s1, delta, s2Input)
			if !got.Equal(want) {
				t.Fatalf("seed %d workers %d: ApplyDelta differs", seed, nw)
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
		in := mustWith(prog, db.Clone(), Options{Workers: nw})
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
	for _, nw := range []int{2, 3, runtime.GOMAXPROCS(0) + 2} {
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
	in := mustWith(prog, randomEdgeDB(rand.New(rand.NewSource(11)), 8, 0.3), Options{Workers: 4})
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
// the worker's share of the hint, not for all of it.  The round below
// derives 100k pairs from a 200k-tuple delta — a fixpoint past its
// peak, where the hint overestimates.  The two workers' buckets are
// then together sized for the hint, the merge grows one worker's
// buckets by the other's ids, and the concatenation builds the result:
// 2.8 times the result's own bytes.  With every worker presized for the
// whole hint the buckets alone are twice that size, 4.2 times in all.
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
	in, err := NewWith(parser.MustProgram("s(X,Y) :- s(X,Z), half(Z,Y)."), db, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := State{"s": delta}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // two cycles empty every sync.Pool: nothing earlier is reused
	runtime.ReadMemStats(&before)
	out := in.ApplyDeltaSplitFrontier(State{"s": relation.New(2)}, d, d, d)
	runtime.ReadMemStats(&after)
	pass := after.TotalAlloc - before.TotalAlloc

	runtime.ReadMemStats(&before)
	relation.ConcatDisjoint(2, []*relation.Relation{out["s"]})
	runtime.ReadMemStats(&after)
	result := after.TotalAlloc - before.TotalAlloc

	if out["s"].Len() != xs*zs/2 {
		t.Fatalf("pass derived %d tuples, want %d", out["s"].Len(), xs*zs/2)
	}
	t.Logf("pass allocated %d bytes for a %d-tuple result of %d bytes (%.2fx)",
		pass, out["s"].Len(), result, float64(pass)/float64(result))
	if pass > 3*result {
		t.Errorf("pass allocated %d bytes, want at most 3 × %d", pass, result)
	}
}

// TestWorkersKnobs pins how Options.Workers resolves: a positive value
// is the pool size, anything else GOMAXPROCS.
func TestWorkersKnobs(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).")
	for _, c := range []struct{ set, want int }{{0, runtime.GOMAXPROCS(0)}, {-1, runtime.GOMAXPROCS(0)}, {3, 3}} {
		in := mustWith(prog, pathDB(3), Options{Workers: c.set})
		if got := in.Workers(); got != c.want {
			t.Errorf("Options{Workers: %d}: Workers() = %d, want %d", c.set, got, c.want)
		}
	}
}
