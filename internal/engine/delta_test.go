package engine_test

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// diamond returns the TC instance over E = {a→b, a→c, b→d, c→d} and its
// inflationary fixpoint state.
func diamond(t *testing.T) (*engine.Instance, engine.State) {
	t.Helper()
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := parser.MustFacts("E(a,b). E(a,c). E(b,d). E(c,d).")
	in := engine.MustNew(prog, db)
	return in, semantics.Inflationary(in).State
}

func tup(in *engine.Instance, names ...string) relation.Tuple {
	t := make(relation.Tuple, len(names))
	for i, n := range names {
		id, ok := in.Universe().Lookup(n)
		if !ok {
			panic("unknown constant " + n)
		}
		t[i] = id
	}
	return t
}

// TestApplyDeltasPosDriverMatchesApplyDelta checks that SemiNaive is
// the IDB-insert special case of a Deltas pass.
func TestApplyDeltasPosDriverMatchesApplyDelta(t *testing.T) {
	in, _ := diamond(t)
	old := in.NewState()
	cur := in.Apply(old) // stage 1: the E edges
	delta := cur.Diff(old)

	want := in.Eval(engine.SemiNaive(old, delta, cur, nil))
	got := in.Eval(engine.Spec{Pos: cur, Deltas: map[string]engine.Delta{
		"s": {PosDriver: delta["s"], Before: engine.Overlay{Base: old["s"]}},
	}})
	if !got.Equal(want) {
		t.Fatalf("Deltas pass != SemiNaive:\ngot  %v\nwant %v",
			got.Format(in.Universe()), want.Format(in.Universe()))
	}
}

// TestApplyDeltasNegDriver: with win(X) :- E(X,Y), !win(Y), a tuple
// entering win must surface exactly the derivations its negation was
// supporting — the disabled-derivations probe of the delete pass.
func TestApplyDeltasNegDriver(t *testing.T) {
	prog := parser.MustProgram("win(X) :- E(X,Y), !win(Y).")
	db := parser.MustFacts("E(a,b). E(b,c). E(c,d).")
	in := engine.MustNew(prog, db)
	empty := in.NewState()

	gained := relation.New(1)
	gained.Add(tup(in, "b"))
	got := in.Eval(engine.Spec{Pos: empty, Deltas: map[string]engine.Delta{
		"win": {NegDriver: gained},
	}})
	want := in.NewState()
	want["win"].Add(tup(in, "a"))
	if !got.Equal(want) {
		t.Fatalf("neg-driver derivations = %v, want %v",
			got.Format(in.Universe()), want.Format(in.Universe()))
	}
}

// TestApplyWithin restricts evaluation to a candidate head set.
func TestApplyWithin(t *testing.T) {
	in, st := diamond(t)
	cand := relation.New(2)
	cand.Add(tup(in, "a", "d"))
	cand.Add(tup(in, "d", "a")) // not derivable
	within := map[string]*relation.Relation{"s": cand}
	got := in.Eval(engine.Spec{Pos: st, Within: within})
	if got["s"].Len() != 1 || !got["s"].Has(tup(in, "a", "d")) {
		t.Fatalf("Within pass = %v, want exactly s(a,d)", got.Format(in.Universe()))
	}
	// Empty filter: nothing runs.
	if out := in.Eval(engine.Spec{Pos: st, Within: map[string]*relation.Relation{}}); !out.Empty() {
		t.Fatalf("empty Within derived %v", out.Format(in.Universe()))
	}
	// With Deltas, Within filters what the delta tasks emit: s(b,d)
	// drives s(a,d) through E(a,b), which the filter keeps, and nothing
	// else.
	drv := relation.New(2)
	drv.Add(tup(in, "b", "d"))
	deltas := map[string]engine.Delta{"s": {PosDriver: drv}}
	if got := in.Eval(engine.Spec{Pos: st, Within: within, Deltas: deltas}); got["s"].Len() != 1 || !got["s"].Has(tup(in, "a", "d")) {
		t.Fatalf("filtered delta pass = %v, want exactly s(a,d)", got.Format(in.Universe()))
	}
	only := relation.New(2)
	only.Add(tup(in, "d", "a"))
	if got := in.Eval(engine.Spec{Pos: st, Within: map[string]*relation.Relation{"s": only}, Deltas: deltas}); !got.Empty() {
		t.Fatalf("delta pass filtered to s(d,a) derived %v", got.Format(in.Universe()))
	}
}

// TestFullyBoundLiteralBuildsNoIndex: in the rederivation pass the head
// filter binds both columns of s(Z,Y), so the literal is answered by
// the relation's membership table.  An index on every column would
// hold one bucket per tuple; with the per-column statistics the planner
// reads already built (each column's index builds on its first
// Distinct), what a pass allocates must therefore not depend on how
// large s is.
func TestFullyBoundLiteralBuildsNoIndex(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	alloc := func(n int) uint64 {
		db := relation.NewDatabase()
		e, _ := db.Ensure("E", 2)
		s := relation.New(2)
		id := func(i int) int { return db.Universe().Intern("v" + strconv.Itoa(i)) }
		for i := 0; i < n; i++ {
			e.Add(relation.Tuple{id(i), id(i + 1)})
			s.Add(relation.Tuple{id(i + 1), id(i + 2)})
		}
		in, err := engine.New(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		st := engine.State{"s": s}
		cand := relation.New(2)
		cand.Add(relation.Tuple{id(0), id(2)})
		cand.Add(relation.Tuple{id(3), id(7)}) // not derivable
		e.Distinct(0)
		e.Distinct(1)
		s.Distinct(0)
		s.Distinct(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := in.Eval(engine.Spec{Pos: st, Within: map[string]*relation.Relation{"s": cand}})
		runtime.ReadMemStats(&after)
		if got["s"].Len() != 1 || !got["s"].Has(relation.Tuple{id(0), id(2)}) {
			t.Fatalf("n=%d: Within pass = %v, want exactly s(v0,v2)", n, got.Format(in.Universe()))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1000), alloc(10000)
	if large > small+small/2+4096 {
		t.Errorf("one rederivation pass allocates %d bytes over 1000 tuples and %d over 10000", small, large)
	}
}
