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

// multiRuleSrc has several rules, so a pass runs several tasks, with
// recursion and negation among them.
const multiRuleSrc = `
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
r(X,Y) :- s(X,Y), !E(X,Y).
p(X) :- s(X,X).
q(X) :- E(X,Y), !s(Y,X).
`

// TestConcurrentApplySharedInputs runs many Apply calls concurrently
// against the same instance and input state.  Inputs are only read, so
// this must be race-free (the race job in CI runs this test with -race)
// and every goroutine must get the same answer — it exercises the
// synchronized lazy index build inside Relation from many readers.
func TestConcurrentApplySharedInputs(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
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

// TestParallelPassBytes pins what one pass of the paper's parallel
// operator allocates in the shape every fixpoint loop runs: a
// semi-naive pass into the state whose delta is a range of it, with the
// state's index prebuilt.  The round below derives 100k pairs from a
// 200k-tuple delta into the relation the delta is a range of — a
// fixpoint past its peak.  The pass appends straight into the state,
// whose dense key table already has their slots, so it pays their arena
// alone: about a third of what the new tuples take stored as a relation
// of their own, arena and key table.  The gate is half of that.
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
	var out State
	pass := allocated(func() { out = in.Eval(sp) })
	if out["s"].Len() != xs*zs/2 || s.Len() != xs*zs*3/2 {
		t.Fatalf("pass appended %d tuples, want %d", out["s"].Len(), xs*zs/2)
	}
	copied := allocated(func() { relation.New(2).AppendDisjoint(out["s"]) })
	t.Logf("the pass allocated %d bytes; the new tuples in a relation of their own %d (%.2fx)",
		pass, copied, float64(pass)/float64(copied))
	if 2*pass > copied {
		t.Errorf("the pass allocated %d bytes, want at most ½ × %d", pass, copied)
	}
}

// allocated returns the bytes f allocates.  Two GC cycles first empty
// every sync.Pool, so nothing allocated earlier is reused.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
