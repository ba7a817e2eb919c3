package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// workerSweep is the worker-count matrix of the frontier acceptance
// tests: sequential, minimal parallelism, and the full pool.
func workerSweep() []int {
	sweep := []int{1, 2}
	if n := hostProcs; n > 2 {
		sweep = append(sweep, n)
	} else {
		sweep = append(sweep, 8) // oversubscribe: scheduling must not matter
	}
	return sweep
}

// TestPropFrontierMatchesDeriveDiff is the frontier contract's
// acceptance property: over randomized programs, databases and worker
// counts (sequential, minimal parallelism, oversubscribed), a pass into
// a clone of the state S leaves S ∪ (derive(S) ∖ S) in it and returns
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
		setProcs(t, 1)
		ref := MustNew(prog, db.Clone())
		s0 := ref.NewState()
		s1 := ref.Apply(s0)
		s2 := s1.Clone()
		s2.UnionWith(ref.Apply(s1))
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
			setProcs(t, 1)
			for _, self := range []bool{false, true} {
				for _, nw := range workerSweep() {
					setProcs(t, nw)
					in := MustNew(prog, db.Clone())
					if msg := checkInto(in, ref, sp, s2, self); msg != "" {
						t.Fatalf("seed %d workers %d: %s pass (reading its own Into: %v): %s\nprogram:\n%s", seed, nw, shape, self, msg, src)
					}
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
	want.UnionWith(derived)
	sp.Into = s.Clone()
	if self {
		sp.Pos = sp.Into
	}
	appended := in.NewState()
	appended.UnionWith(in.Eval(sp))
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

// inflateFrontierSemiNaive is the semi-naive variant: each round is
// driven by the range of cur the previous one appended, exactly like
// semantics.lfpLoop, so big deltas are sharded over the pool and merged.
func inflateFrontierSemiNaive(in *Instance) State {
	cur := in.NewState()
	prev := cur.View()
	for delta := in.Eval(Spec{Pos: cur, Into: cur}); !delta.Empty(); {
		sp := SemiNaive(prev, delta, cur, nil)
		sp.Into, prev = cur, cur.View()
		delta = in.Eval(sp)
	}
	return cur
}

// TestFrontierFixpointMatchesOracle runs whole inflationary evaluations
// on the frontier contract across worker counts and compares the final
// states against S ∪ Θ(S) iterated on the unfiltered Apply.
func TestFrontierFixpointMatchesOracle(t *testing.T) {
	prog := parser.MustProgram(multiRuleSrc)
	db := randomEdgeDB(rand.New(rand.NewSource(5)), 10, 0.2)
	setProcs(t, 1)
	want := inflate(MustNew(prog, db.Clone()))

	for _, nw := range workerSweep() {
		setProcs(t, nw)
		in := MustNew(prog, db.Clone())
		if got := inflateFrontier(in); !got.Equal(want) {
			t.Fatalf("frontier fixpoint differs with %d workers", nw)
		}
	}
}

// TestShardedMergeMatchesOneWorker drives the intra-rule sharding and the
// merge of per-worker outputs on a workload big enough to trigger both:
// a transitive closure whose middle rounds drive more than InlineFloor
// delta tuples while its first and last stay under it, evaluated by a
// 2-rule program on a many-worker pool (more workers than tasks, so
// every pooled round shards its driver into arena ranges).
func TestShardedMergeMatchesOneWorker(t *testing.T) {
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	prog := parser.MustProgram(src)
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 120, 0.025)

	setProcs(t, 1)
	want := inflate(MustNew(prog, db.Clone()))
	if want["s"].Len() < 2*InlineFloor {
		t.Fatalf("fixture too small to drive pooled rounds: |s| = %d", want["s"].Len())
	}

	for _, nw := range []int{2, 4, 8} {
		setProcs(t, nw)
		in := MustNew(prog, db.Clone())
		if got := inflateFrontierSemiNaive(in); !got.Equal(want) {
			t.Fatalf("sharded fixpoint differs with %d workers", nw)
		}
	}
}

// partsPrograms are the programs of the pool-split tests: recursion
// through a binary IDB, negation and a comparison on the driver's
// bindings feeding a second IDB, and a self-join of the driver.
var partsPrograms = []string{
	"S(X,Y) :- E(X,Y).\nS(X,Y) :- S(X,Z), E(Z,Y).",
	"S(X,Y) :- E(X,Y).\nQ(X,Y) :- S(X,Y), !E(Y,X), X != Y.\nP(X) :- Q(X,Y), V(Y).",
	"S(X,Y) :- S(X,Z), S(Z,Y).",
}

// TestPropPartsMatchUnpartitioned checks the pool's split of one
// semi-naive pass: over random databases, a pass whose driver delta is
// over InlineFloor is scheduled on every worker, and the merged parts
// are exactly the single-part pass of a one-worker instance — and a
// pass into a clone of the state appends exactly what the state lacks.
func TestPropPartsMatchUnpartitioned(t *testing.T) {
	const n = 72 // 7/8 of the n² pairs is well over InlineFloor
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomEdgeDB(rng, n, 0.05)
		for i := 0; i < n; i += 3 {
			db.AddFact("V", fmt.Sprint(i))
		}
		d := relation.New(2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(8) != 0 {
					x, _ := db.Universe().Lookup(fmt.Sprint(i))
					y, _ := db.Universe().Lookup(fmt.Sprint(j))
					d.Add(relation.Tuple{x, y})
				}
			}
		}
		for _, src := range partsPrograms {
			prog := parser.MustProgram(src)
			setProcs(t, 1)
			ref := MustNew(prog, db.Clone())
			old := ref.NewState()
			delta := State{"S": d}
			cur := old.Clone()
			cur["S"].UnionWith(d)
			sp := SemiNaive(old, delta, cur, nil)
			want := ref.Eval(sp)

			for _, nw := range []int{2, 3, 5} {
				setProcs(t, nw)
				in := MustNew(prog, db.Clone())
				if w := in.driverWork(in.tasks(sp), cur); w < InlineFloor {
					t.Fatalf("seed %d: fixture drives %d tuples, under InlineFloor", seed, w)
				}
				if _, w := in.schedule(in.tasks(sp), cur); w != nw {
					t.Fatalf("seed %d workers %d: scheduled on %d workers\nprogram:\n%s", seed, nw, w, src)
				}
				if got := in.Eval(sp); !got.Equal(want) {
					t.Fatalf("seed %d workers %d: parts differ from the one-worker pass\nprogram:\n%s", seed, nw, src)
				}
				if msg := checkInto(in, ref, sp, cur, false); msg != "" {
					t.Fatalf("seed %d workers %d: pass into the state: %s\nprogram:\n%s", seed, nw, msg, src)
				}
			}
		}
	}
}

// TestApplyDeltasFrontierParts drives passes into a state over
// InlineFloor: a full, a semi-naive, a Within and a maintenance pass,
// evaluated inline by one worker and on the pool by two and four, leave
// S ∪ (derive(S) ∖ S) in a clone of S and return derive(S) ∖ S; the
// two-worker pass reads the clone itself, the others S.  S is a
// random three quarters of a transitive closure, so every pass
// re-derives a non-empty rest, and the closure is non-linear, so even
// the full pass enumerates S first.
func TestApplyDeltasFrontierParts(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 120, 0.025)
	setProcs(t, 1)
	ref := MustNew(prog, db.Clone())
	rng := rand.New(rand.NewSource(7))
	closure := inflate(ref)
	cur := ref.NewState()
	for _, tu := range closure["s"].Tuples() {
		if rng.Intn(4) != 0 {
			cur["s"].Add(tu)
		}
	}
	if cur["s"].Len() < InlineFloor {
		t.Fatalf("fixture too small to drive a pooled round: |s| = %d", cur["s"].Len())
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
		for _, nw := range []int{1, 2, 4} {
			setProcs(t, nw)
			in := MustNew(prog, db.Clone())
			if _, w := in.schedule(in.tasks(sp), cur); w != nw {
				t.Fatalf("%s pass, workers %d: scheduled on %d workers", shape, nw, w)
			}
			if msg := checkInto(in, ref, sp, cur, nw == 2); msg != "" {
				t.Fatalf("%s pass, workers %d: %s", shape, nw, msg)
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
	setProcs(t, 1)
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
		setProcs(t, 1)
		in := MustNew(parser.MustProgram("tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."), db)
		fix := in.Apply(in.NewState()) // warm indexes, derive all triangles
		allocs := testing.AllocsPerRun(10, func() { in.Eval(Spec{Pos: fix, Into: fix}) })
		if allocs > 64 {
			t.Errorf("n=%d: %v allocs per frontier pass, want fixed overhead ≤ 64", n, allocs)
		}
	}
}

// TestExpandShardsPartition checks the shard expansion invariants
// directly: shard ranges partition the driver's arena exactly, and
// tasks whose driver is too small pass through unchanged.
func TestExpandShardsPartition(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(9)), 40, 0.3)
	in := MustNew(prog, db)
	s := in.Apply(in.NewState())

	tasks := in.tasks(Spec{Pos: s})
	expanded := in.expandShards(tasks, s, 8)
	if len(expanded) <= len(tasks) {
		t.Fatalf("expected shard expansion, got %d tasks from %d", len(expanded), len(tasks))
	}
	// Group shards by rule and verify each sharded rule's ranges tile
	// [0, n) without gaps or overlaps.
	covered := make(map[*rulePlan]int32)
	for _, task := range expanded {
		if task.shardHi == 0 {
			continue
		}
		if task.shardLo != covered[task.rp] {
			t.Fatalf("shard ranges of rule %v do not tile: next starts at %d, expected %d",
				task.rp.src, task.shardLo, covered[task.rp])
		}
		if task.shardHi <= task.shardLo {
			t.Fatalf("empty shard range [%d, %d)", task.shardLo, task.shardHi)
		}
		covered[task.rp] = task.shardHi
	}
	if len(covered) == 0 {
		t.Fatal("no rule was sharded")
	}
	for rp, hi := range covered {
		_, rel := in.shardTarget(evalTask{rp: rp, driver: -1}, s)
		if int(hi) != rel.Len() {
			t.Fatalf("rule %v: shards cover [0, %d), driver has %d tuples", rp.src, hi, rel.Len())
		}
	}
}

// TestOffsetsInRange pins the shard-aware index probe helper.
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
