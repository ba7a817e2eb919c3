package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// TestPropFrontierMatchesDeriveDiff is the frontier contract's
// acceptance property: over randomized programs and databases, a pass
// into a clone of the state S leaves S ∪ (derive(S) ∖ S) in it and returns
// exactly derive(S) ∖ S as ranges of the clone — for a Θ application, a
// semi-naive round, a Within pass and a maintenance pass, reading the
// clone itself or S.
func TestPropFrontierMatchesDeriveDiff(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomProgram(rng)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable program:\n%s\n%v", seed, src, err)
		}
		db := randomEdgeDB(rng, 4, 0.4)
		for i := 0; i < 4; i++ {
			if rng.Intn(2) == 0 {
				db.AddFact("V", fmt.Sprint(i))
			}
		}

		// Reference stages; each shape's derivations, unfiltered.
		ref := MustNew(prog, db.Clone())
		s0 := ref.NewState()
		s1 := ref.Apply(s0)
		s2 := s1.Clone()
		union(s2, ref.Apply(s1))
		delta := s2.Diff(s1)
		deltas := map[string]Delta{}
		for pred, d := range delta {
			deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: s1[pred]}}
		}

		shapes := map[string]Spec{
			"full":       {Pos: s2},
			"semi-naive": SemiNaive(s1, delta, s2, nil),
			"within":     {Pos: s2, Within: ref.Apply(s2)},
			"delta":      {Pos: s2, Deltas: deltas},
		}
		for shape, sp := range shapes {
			for _, self := range []bool{false, true} {
				in := MustNew(prog, db.Clone())
				if msg := checkInto(in, ref, sp, s2, self); msg != "" {
					t.Fatalf("seed %d: %s pass (reading its own Into: %v): %s\nprogram:\n%s", seed, shape, self, msg, src)
				}
			}
		}
	}
}

// checkInto runs sp with Into a clone of s, which sp.Pos must be, on in
// — reading the clone itself when self is set — and checks it against
// ref's unfiltered pass: the clone must end as s ∪ (derive ∖ s), and
// the returned ranges must hold exactly derive ∖ s.  It returns what
// differs, or "".
func checkInto(in, ref *Instance, sp Spec, s State, self bool) string {
	derived := ref.Eval(sp)
	want := s.Clone()
	union(want, derived)
	sp.Into = s.Clone()
	if self {
		sp.Pos = sp.Into
	}
	appended := in.NewState()
	union(appended, in.Eval(sp))
	switch u := in.Universe(); {
	case !sp.Into.Equal(want):
		return fmt.Sprintf("Into holds\n%vwant\n%v", sp.Into.Format(u), want.Format(u))
	case !appended.Equal(derived.Diff(s)):
		return fmt.Sprintf("returned ranges hold\n%vwant\n%v", appended.Format(u), derived.Diff(s).Format(u))
	}
	return ""
}

// inflateFrontier iterates the inflationary operator on the frontier
// contract to its fixpoint: every pass extends the state it reads.
func inflateFrontier(in *Instance) State {
	cur := in.NewState()
	for !in.Eval(Spec{Pos: cur, Into: cur}).Empty() {
	}
	return cur
}

// TestFrontierFixpointMatchesOracle runs a whole inflationary
// evaluation on the frontier contract and compares the final state
// against S ∪ Θ(S) iterated on the unfiltered Apply.
func TestFrontierFixpointMatchesOracle(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	db := randomEdgeDB(rand.New(rand.NewSource(5)), 10, 0.2)
	want := inflate(MustNew(prog, db.Clone()))
	if got := inflateFrontier(MustNew(prog, db.Clone())); !got.Equal(want) {
		t.Fatal("frontier fixpoint differs from the unfiltered one")
	}
}

// TestApplyDeltasFrontierParts drives passes into a state of thousands
// of tuples: a full, a semi-naive, a Within and a maintenance pass leave
// S ∪ (derive(S) ∖ S) in a clone of S and return derive(S) ∖ S, reading
// the clone itself or S.  S is a random three quarters of a transitive
// closure, so every pass re-derives a non-empty rest, and the closure
// is non-linear, so even the full pass enumerates S first.
func TestApplyDeltasFrontierParts(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 120, 0.025)
	ref := MustNew(prog, db.Clone())
	rng := rand.New(rand.NewSource(7))
	closure := inflate(ref)
	cur := ref.NewState()
	for _, tu := range closure["s"].Tuples() {
		if rng.Intn(4) != 0 {
			cur["s"].Add(tu)
		}
	}
	shapes := map[string]Spec{
		"full":       {Pos: cur},
		"semi-naive": SemiNaive(ref.NewState(), cur, cur, nil),
		"within":     {Pos: cur, Within: closure},
		"delta":      {Pos: cur, Deltas: map[string]Delta{"s": {PosDriver: cur["s"]}}},
	}
	for shape, sp := range shapes {
		if ref.Eval(sp).Diff(cur).Empty() {
			t.Fatalf("%s pass re-derives nothing", shape)
		}
		for _, self := range []bool{false, true} {
			if msg := checkInto(MustNew(prog, db.Clone()), ref, sp, cur, self); msg != "" {
				t.Fatalf("%s pass (reading its own Into: %v): %s", shape, self, msg)
			}
		}
	}
}

// TestEmptyPassAllocs is a maintenance pass none of whose tasks has a
// driver: it builds no output state and returns nil, so it allocates
// nothing at all, where it once built a state of empty relations.
func TestEmptyPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector (see race_test.go)")
	}
	in := MustNew(parser.MustProgram(multiRuleSrc), pathDB(3))
	fix := inflate(in)
	sp := Spec{Pos: fix, Deltas: map[string]Delta{"E": {}, "s": {}}, Into: fix}
	if got := in.Eval(sp); got != nil {
		t.Fatalf("a pass without drivers returned %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { in.Eval(sp) }); allocs != 0 {
		t.Errorf("%v allocs per pass without drivers, want 0", allocs)
	}
}

// TestFrontierZeroAllocs extends the TestJoinProbeZeroAllocs guard to
// the frontier path: once the fixpoint is reached, a frontier pass
// re-derives only tuples the filter drops at emit time, so allocations
// per pass must stay a small constant — the membership probe and the
// discarded emission allocate nothing per tuple.
func TestFrontierZeroAllocs(t *testing.T) {
	for _, n := range []int{12, 28} {
		rng := rand.New(rand.NewSource(3))
		db := randomEdgeDB(rng, n, 0.3)
		in := MustNew(parser.MustProgram("tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."), db)
		fix := in.Apply(in.NewState()) // warm indexes, derive all triangles
		allocs := testing.AllocsPerRun(10, func() { in.Eval(Spec{Pos: fix, Into: fix}) })
		if allocs > 64 {
			t.Errorf("n=%d: %v allocs per frontier pass, want fixed overhead ≤ 64", n, allocs)
		}
	}
}

// TestOffsetsInRange pins the helper a range view's index probe narrows
// its relation's bucket with.
func TestOffsetsInRange(t *testing.T) {
	offs := []int32{2, 3, 7, 11, 12, 30}
	cases := []struct {
		lo, hi int32
		want   []int32
	}{
		{0, 31, []int32{2, 3, 7, 11, 12, 30}},
		{3, 12, []int32{3, 7, 11}},
		{4, 7, nil},
		{12, 12, nil},
		{13, 5, nil},
	}
	for _, c := range cases {
		got := relation.OffsetsInRange(offs, c.lo, c.hi)
		if len(got) != len(c.want) {
			t.Errorf("OffsetsInRange(%v, %d, %d) = %v, want %v", offs, c.lo, c.hi, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("OffsetsInRange(%v, %d, %d) = %v, want %v", offs, c.lo, c.hi, got, c.want)
				break
			}
		}
	}
}

// TestGammaPassTakesNoViews: a Γ pass of win-move reads its own
// predicate only negated, against the stage below, so a pass into the
// stage it extends needs no pass-start view, and atStart hands Pos and
// Neg back as they are, cloning no map.  A Θ pass of the same program
// reads win negated from the state it extends, so it takes a view.
func TestGammaPassTakesNoViews(t *testing.T) {
	in := MustNew(parser.MustProgram("win(X) :- move(X,Y), !win(Y)."), parser.MustFacts("move(a,b). move(b,c)."))
	below := in.Apply(in.NewState())
	cur := in.NewState()
	tasks := in.tasks(Spec{Pos: cur, Neg: below})
	same := func(a, b State) bool { return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer() }
	if got := atStart(cur, cur, tasks, true, false); !same(got, cur) {
		t.Error("the Γ pass took a view of its own stage for its positive literals")
	}
	if got := atStart(below, cur, tasks, false, true); !same(got, below) {
		t.Error("the Γ pass took a view of the stage below")
	}
	if got := atStart(cur, cur, tasks, true, true); same(got, cur) || got["win"] == cur["win"] {
		t.Error("the Θ pass reads win from the state it extends without a view")
	}
	want := in.Eval(Spec{Pos: in.NewState(), Neg: below})
	if got := in.Eval(Spec{Pos: cur, Neg: below, Into: cur}); !cur.Equal(want) || !got.Equal(want) {
		t.Fatalf("the Γ pass into its stage left %vand returned %v, want %v", cur.Format(in.Universe()), got, want.Format(in.Universe()))
	}
}
