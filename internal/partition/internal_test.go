package partition

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/relation"
)

// TestShardState checks the owner sharding: shards partition the input
// by TupleHash, preserving every tuple exactly once.
func TestShardState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := relation.New(2)
	for i := 0; i < 2000; i++ {
		r.Add(relation.Tuple{rng.Intn(60), rng.Intn(60)})
	}
	s := engine.State{"p": r}
	const k = 4
	shards := shardState(s, k)
	total := 0
	for p, sh := range shards {
		sh["p"].Each(func(tp relation.Tuple) bool {
			if own := int(relation.TupleHash(tp) % k); own != p {
				t.Fatalf("tuple %v in shard %d, owned by %d", tp, p, own)
			}
			return true
		})
		total += sh["p"].Len()
	}
	if total != r.Len() {
		t.Fatalf("shards hold %d tuples, input %d", total, r.Len())
	}
	// Reassembled shards equal the input.
	whole := relation.New(2)
	for _, sh := range shards {
		whole.UnionWith(sh["p"])
	}
	if !whole.Equal(r) {
		t.Fatalf("reassembled shards differ from input")
	}
}

// TestShardRelationNil checks the nil-driver passthrough used by
// shardDeltas.
func TestShardRelationNil(t *testing.T) {
	if shardRelation(nil, 4) != nil {
		t.Fatalf("nil relation must shard to nil")
	}
}

// TestApplyDeltasFrontierRouting checks the maintenance-round exchange
// wrapper: with K > 1 the drivers are sharded to their owning
// partitions, evaluated K-way, and the reassembled frontier equals the
// plain unpartitioned call; K ≤ 1 short-circuits to the engine.
func TestApplyDeltasFrontierRouting(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).")
	db := relation.NewDatabase()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		db.AddFact("E", names(rng.Intn(12)), names(rng.Intn(12)))
	}
	in := engine.MustNew(prog, db)
	cur := in.Apply(in.NewState())
	deltas := map[string]engine.Delta{"s": {PosDriver: cur["s"]}}
	want := in.ApplyDeltasFrontier(cur, cur, deltas, cur)
	for _, k := range []int{1, 3, 4} {
		in, err := engine.NewWith(prog, db, engine.Options{Partitions: k})
		if err != nil {
			t.Fatal(err)
		}
		got := ApplyDeltasFrontier(in, cur, cur, deltas, cur)
		if !got.Equal(want) {
			t.Fatalf("K=%d: routed maintenance round differs from unpartitioned", k)
		}
	}
	// A nil NegDriver shard must stay nil so the engine's driver
	// dispatch sees the same Delta shape as the unpartitioned call.
	sh := shardDeltas(deltas, 2)
	for p := 0; p < 2; p++ {
		if d := sh[p]["s"]; d.NegDriver != nil {
			t.Fatalf("partition %d: nil NegDriver sharded to non-nil", p)
		}
	}
}

func names(i int) string { return string(rune('a' + i)) }
