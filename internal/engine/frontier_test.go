package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// workerSweep is the worker-count matrix of the frontier acceptance
// tests: sequential, minimal parallelism, and the full pool.
func workerSweep() []int {
	sweep := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		sweep = append(sweep, n)
	} else {
		sweep = append(sweep, 8) // oversubscribe: scheduling must not matter
	}
	return sweep
}

// TestPropFrontierMatchesDeriveDiff is the frontier contract's
// acceptance property: over randomized programs, databases and worker
// counts (sequential, sharded, oversubscribed), every *Frontier entry
// point returns exactly its unfiltered twin's derivations minus the
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

		// Reference stages, and each twin's answer minus s2.
		ref := mustWith(prog, db.Clone(), Options{Workers: 1})
		s0 := ref.NewState()
		s1 := ref.Apply(s0)
		s2 := s1.Clone()
		s2.UnionWith(ref.Apply(s1))
		delta := s2.Diff(s1)
		deltas := map[string]Delta{}
		for pred, d := range delta {
			deltas[pred] = Delta{PosDriver: d, Before: Overlay{Base: s1[pred]}}
		}

		wantTheta := ref.ApplySplit(s2, s2).Diff(s2)
		wantRound := ref.ApplyDeltaSplit(s1, delta, s2, s2).Diff(s2)
		wantDeltas := ref.ApplyDeltas(s2, s2, deltas).Diff(s2)

		for _, nw := range workerSweep() {
			in := mustWith(prog, db.Clone(), Options{Workers: nw})
			if got := in.ApplySplitFrontier(s2, s2, s2); !got.Equal(wantTheta) {
				t.Fatalf("seed %d workers %d: ApplySplitFrontier differs\nprogram:\n%s\ngot:\n%v\nwant:\n%v",
					seed, nw, src, got.Format(db.Universe()), wantTheta.Format(db.Universe()))
			}
			if got := in.ApplyDeltaSplitFrontier(s1, delta, s2, s2); !got.Equal(wantRound) {
				t.Fatalf("seed %d workers %d: ApplyDeltaSplitFrontier differs\nprogram:\n%s", seed, nw, src)
			}
			if got := in.ApplyDeltasFrontier(s2, s2, deltas, s2); !got.Equal(wantDeltas) {
				t.Fatalf("seed %d workers %d: ApplyDeltasFrontier differs\nprogram:\n%s", seed, nw, src)
			}
		}
	}
}

// inflateFrontier iterates the inflationary operator on the frontier
// contract to its fixpoint.
func inflateFrontier(in *Instance) State {
	cur := in.Apply(in.NewState())
	for {
		nd := in.ApplyFrontier(cur, cur)
		if nd.Empty() {
			return cur
		}
		cur.UnionDisjoint(nd)
	}
}

// inflateFrontierSemiNaive is the semi-naive variant: rounds pass the
// previous delta as driver, exactly like semantics.lfpLoop, so big
// deltas flow through the hint-driven partitioned merge.
func inflateFrontierSemiNaive(in *Instance) State {
	prev := in.NewState()
	cur := in.Apply(prev)
	delta := cur.Snapshot()
	for !delta.Empty() {
		nd := in.ApplyDeltaSplitFrontier(prev, delta, cur, cur)
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
	want := inflate(mustWith(prog, db.Clone(), Options{Workers: 1}))

	for _, nw := range workerSweep() {
		in := mustWith(prog, db.Clone(), Options{Workers: nw})
		if got := inflateFrontier(in); !got.Equal(want) {
			t.Fatalf("frontier fixpoint differs with %d workers", nw)
		}
	}
}

// TestShardedPartitionedMerge drives the intra-rule sharding and the
// hash-partitioned merge on a workload big enough to trigger both: a
// transitive closure whose per-round deltas exceed partitionThreshold,
// evaluated by a 2-rule program on a many-worker pool (more workers
// than tasks, so every round must shard its driver).
func TestShardedPartitionedMerge(t *testing.T) {
	src := "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."
	prog := parser.MustProgram(src)
	db := randomEdgeDB(rand.New(rand.NewSource(42)), 48, 0.2)

	want := inflate(mustWith(prog, db.Clone(), Options{Workers: 1}))
	if want["s"].Len() < partitionThreshold {
		t.Fatalf("fixture too small to exercise partitioned merge: |s| = %d", want["s"].Len())
	}

	for _, nw := range []int{2, 4, 8} {
		in := mustWith(prog, db.Clone(), Options{Workers: nw})
		if got := inflateFrontierSemiNaive(in); !got.Equal(want) {
			t.Fatalf("sharded+partitioned fixpoint differs with %d workers", nw)
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
		in := mustWith(parser.MustProgram("tri(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)."), db, Options{Workers: 1})
		fix := in.Apply(in.NewState()) // warm indexes, derive all triangles
		allocs := testing.AllocsPerRun(10, func() { in.ApplySplitFrontier(fix, fix, fix) })
		if allocs > 64 {
			t.Errorf("n=%d: %v allocs per frontier pass, want fixed overhead ≤ 64", n, allocs)
		}
	}
}

// TestFrontierFilteredMatchesExact drives the filtered round entry
// point directly: with complete prefilters over the accumulated state,
// the round's output must be bit-exact with the unfiltered round, the
// filter must actually be consulted, and skips must stay plausible.
func TestFrontierFilteredMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y).")
	db := randomEdgeDB(rng, 40, 0.2)
	in := mustWith(prog, db, Options{Workers: 1})

	// Run two semi-naive rounds by hand to get a mid-fixpoint state.
	prev := in.NewState()
	cur := in.ApplySplit(prev, prev)
	delta := cur.Snapshot()
	newDelta := in.ApplyDeltaSplitFrontier(prev, delta, cur, cur)
	prev = cur.Snapshot()
	cur.UnionDisjoint(newDelta)

	want := in.ApplyDeltaSplitFrontier(prev, newDelta, cur, cur)

	// Build filters over everything (threshold-free) so small states are
	// exercised too.
	filters := make(map[string]*relation.Filter, len(cur))
	for pred, r := range cur {
		filters[pred] = relation.FilterOf(r, r.Len()+64)
	}
	got, st := in.ApplyDeltaSplitFrontierFiltered(prev, newDelta, cur, cur, filters)
	if !got.Equal(want) {
		t.Fatalf("filtered round differs from exact round")
	}
	if st.Probes <= 0 {
		t.Fatalf("filter never consulted (probes %d)", st.Probes)
	}
	if st.Skips < 0 || st.Skips > st.Probes {
		t.Fatalf("implausible tallies: probes %d skips %d", st.Probes, st.Skips)
	}
	p0, s0 := FrontierFilterTotals()
	if p0 <= 0 || s0 > p0 {
		t.Fatalf("process totals not accumulated: probes %d skips %d", p0, s0)
	}
}

// TestExtendFrontierFilters pins the filter lifecycle: below-threshold
// predicates get no filter, crossing the threshold creates one covering
// the whole relation, and growth keeps coverage (no false negatives).
func TestExtendFrontierFilters(t *testing.T) {
	mk := func(lo, hi int) *relation.Relation {
		r := relation.New(1)
		for i := lo; i < hi; i++ {
			r.Add(relation.Tuple{i})
		}
		return r
	}
	cur := State{"p": mk(0, 100)}
	if f := FrontierFilters(cur); f != nil {
		t.Fatalf("filter built below threshold")
	}
	cur = State{"p": mk(0, 2000)}
	filters := FrontierFilters(cur)
	if filters == nil || filters["p"] == nil {
		t.Fatal("no filter past threshold")
	}
	grown := State{"p": mk(2000, 2600)}
	cur["p"].UnionWith(grown["p"])
	filters = ExtendFrontierFilters(filters, cur, grown)
	miss := 0
	cur["p"].Each(func(tu relation.Tuple) bool {
		if !filters["p"].MayContainHash(relation.TupleHash(tu)) {
			miss++
		}
		return true
	})
	if miss != 0 {
		t.Fatalf("%d false negatives after extension — coverage contract broken", miss)
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

	tasks := in.fullTasks()
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
