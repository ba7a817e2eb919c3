package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
)

// concatBuckets reassembles owner buckets into one state, checking on
// the way that every tuple landed in the bucket its hash owns.
func concatBuckets(t *testing.T, in *Instance, parts []State) State {
	t.Helper()
	k := uint64(len(parts))
	whole := in.NewState()
	for b, st := range parts {
		for pred, r := range st {
			r.Each(func(tp relation.Tuple) bool {
				if own := int(relation.TupleHash(tp) % k); own != b {
					t.Fatalf("%s tuple %v in bucket %d, owned by %d", pred, tp, b, own)
				}
				return true
			})
			whole[pred].UnionWith(r)
		}
	}
	return whole
}

// TestPropPartsMatchUnpartitioned: over randomized programs, worker
// counts, and filtered and unfiltered passes, the owner buckets of
// ApplyDeltaSplitFrontierParts concatenate to exactly the unpartitioned
// round ApplyDeltaSplit minus the accumulated state — the engine-level
// half of the partitioned bit-exactness contract.
func TestPropPartsMatchUnpartitioned(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
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

		ref := mustWith(prog, db.Clone(), Options{Workers: 1})
		s0 := ref.NewState()
		s1 := ref.Apply(s0)
		s2 := s1.Clone()
		s2.UnionWith(ref.Apply(s1))
		delta := s2.Diff(s1)
		want := ref.ApplyDeltaSplit(s1, delta, s2, s2).Diff(s2)

		for _, k := range []int{1, 3, 5} {
			for _, nw := range workerSweep() {
				for _, filtered := range []bool{false, true} {
					in := mustWith(prog, db.Clone(), Options{Workers: nw})
					po := PartsOpts{NParts: k, Workers: nw}
					if filtered {
						po.Filters = make(map[string]*relation.Filter, len(s2))
						for pred, r := range s2 {
							po.Filters[pred] = relation.FilterOf(r, r.Len()+64)
						}
					}
					parts, st := in.ApplyDeltaSplitFrontierParts(s1, delta, s2, s2, po)
					if len(parts) != k {
						t.Fatalf("seed %d: got %d buckets, want %d", seed, len(parts), k)
					}
					if got := concatBuckets(t, in, parts); !got.Equal(want) {
						t.Fatalf("seed %d K=%d workers %d filtered %v: buckets differ from unpartitioned round\nprogram:\n%s",
							seed, k, nw, filtered, src)
					}
					if filtered && st.Skips > st.Probes {
						t.Fatalf("seed %d: filter skips %d exceed probes %d", seed, st.Skips, st.Probes)
					}
					if !filtered && st.Probes != 0 {
						t.Fatalf("seed %d: unfiltered pass reported %d probes", seed, st.Probes)
					}
				}
			}
		}
	}
}

// TestApplyDeltasFrontierParts checks the maintenance-round entry point
// against the unpartitioned, unfiltered ApplyDeltas minus the
// accumulated state on a semi-naive TC step.
func TestApplyDeltasFrontierParts(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := randomEdgeDB(rand.New(rand.NewSource(7)), 6, 0.4)
	in := MustNew(prog, db)
	cur := in.Apply(in.NewState())
	deltas := map[string]Delta{"s": {PosDriver: cur["s"]}}
	want := in.ApplyDeltas(cur, cur, deltas).Diff(cur)
	for _, k := range []int{1, 4} {
		parts, _ := in.ApplyDeltasFrontierParts(cur, cur, deltas, cur, PartsOpts{NParts: k})
		if got := concatBuckets(t, in, parts); !got.Equal(want) {
			t.Fatalf("K=%d: partitioned maintenance round differs", k)
		}
	}
}

// TestPartitionKnobs pins how Options.Partitions resolves: values
// below 2 mean one unpartitioned instance.
func TestPartitionKnobs(t *testing.T) {
	prog := parser.MustProgram("p(X) :- E(X,X).")
	for _, c := range []struct{ set, want int }{{0, 1}, {1, 1}, {-2, 1}, {5, 5}} {
		in := mustWith(prog, pathDB(3), Options{Partitions: c.set})
		if k := in.Partitions(); k != c.want {
			t.Errorf("Options{Partitions: %d}: Partitions() = %d, want %d", c.set, k, c.want)
		}
	}
}
