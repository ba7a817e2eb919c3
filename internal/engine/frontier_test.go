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
// counts (sequential, sharded, oversubscribed), Eval of a Spec with
// Against returns exactly Eval of the same Spec without it minus the
// accumulated state — per Θ application, per semi-naive round, and per
// maintenance pass.
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

		// Reference stages, and each shape's unfiltered answer minus s2.
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
			"delta":      {Pos: s2, Deltas: deltas},
		}
		for shape, sp := range shapes {
			setProcs(t, 1)
			want := ref.Eval(sp).Diff(s2)
			sp.Against = s2
			for _, nw := range workerSweep() {
				setProcs(t, nw)
				in := MustNew(prog, db.Clone())
				if got := in.Eval(sp); !got.Equal(want) {
					t.Fatalf("seed %d workers %d: %s pass with Against differs\nprogram:\n%s\ngot:\n%v\nwant:\n%v",
						seed, nw, shape, src, got.Format(db.Universe()), want.Format(db.Universe()))
				}
			}
		}
	}
}

// inflateFrontier iterates the inflationary operator on the frontier
// contract to its fixpoint.
func inflateFrontier(in *Instance) State {
	cur := in.Apply(in.NewState())
	for {
		nd := in.Eval(Spec{Pos: cur, Against: cur})
		if nd.Empty() {
			return cur
		}
		cur.UnionDisjoint(nd)
	}
}

// inflateFrontierSemiNaive is the semi-naive variant: rounds pass the
// previous delta as driver, exactly like semantics.lfpLoop, so big
// deltas are sharded over the pool and merged.
func inflateFrontierSemiNaive(in *Instance) State {
	prev := in.NewState()
	cur := in.Apply(prev)
	delta := cur.Snapshot()
	for !delta.Empty() {
		sp := SemiNaive(prev, delta, cur, nil)
		sp.Against = cur
		nd := in.Eval(sp)
		if nd.Empty() {
			break
		}
		prev = cur.Snapshot()
		cur.UnionDisjoint(nd)
		delta = nd
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
// are exactly the single-part pass of a one-worker instance — with
// Against alike.
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
				fr := sp
				fr.Against = cur
				if got := in.Eval(fr); !got.Equal(want.Diff(cur)) {
					t.Fatalf("seed %d workers %d: pass with Against differs from the one-worker pass\nprogram:\n%s", seed, nw, src)
				}
			}
		}
	}
}

// TestApplyDeltasFrontierParts checks a maintenance round on a driver
// over InlineFloor: a Deltas pass with Against, evaluated inline into
// one part by one worker and split into per-worker parts by four,
// returns exactly the pass without Against minus the accumulated state.
// The accumulated state is a random three quarters of a transitive
// closure, so the round re-derives a non-empty rest.
func TestApplyDeltasFrontierParts(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 120, 0.025)
	setProcs(t, 1)
	ref := MustNew(prog, db.Clone())
	rng := rand.New(rand.NewSource(7))
	cur := ref.NewState()
	for _, tu := range inflate(ref)["s"].Tuples() {
		if rng.Intn(4) != 0 {
			cur["s"].Add(tu)
		}
	}
	if cur["s"].Len() < InlineFloor {
		t.Fatalf("fixture too small to drive a pooled round: |s| = %d", cur["s"].Len())
	}
	sp := Spec{Pos: cur, Deltas: map[string]Delta{"s": {PosDriver: cur["s"]}}}
	want := ref.Eval(sp).Diff(cur)
	sp.Against = cur
	if want.Empty() {
		t.Fatal("maintenance round re-derives nothing")
	}
	for _, nw := range []int{1, 4} {
		setProcs(t, nw)
		in := MustNew(prog, db.Clone())
		if _, w := in.schedule(in.tasks(sp), cur); w != nw {
			t.Fatalf("workers %d: scheduled on %d workers", nw, w)
		}
		if got := in.Eval(sp); !got.Equal(want) {
			t.Fatalf("workers %d: maintenance round differs from the unfiltered pass minus the state", nw)
		}
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
		allocs := testing.AllocsPerRun(10, func() { in.Eval(Spec{Pos: fix, Against: fix}) })
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
