package relation

import (
	"maps"
	"math/rand"
	"testing"
)

// homeKeys brute-forces n distinct keys whose probe home slot under
// the given mask is home — the collision clusters the backward-shift
// deletion tests need.
func homeKeys(mask uint64, home uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if mix64(k)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestTableBasics(t *testing.T) {
	tb := newTable(0)
	if tb.n != 0 {
		t.Fatalf("new table Len = %d", tb.n)
	}
	for i := uint64(0); i < 100; i++ {
		tb.putHash(i, mix64(i), int32(i))
	}
	if tb.n != 100 {
		t.Fatalf("Len = %d after 100 inserts", tb.n)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := tb.getHash(i, mix64(i))
		if !ok || v != int32(i) {
			t.Fatalf("get(%d) = %d, %v", i, v, ok)
		}
	}
	if _, ok := tb.getHash(100, mix64(100)); ok {
		t.Error("get of absent key succeeded")
	}
	// Upsert: Remove's swap-last path rewrites offsets in place.
	tb.putHash(7, mix64(7), 999)
	if v, _ := tb.getHash(7, mix64(7)); v != 999 {
		t.Errorf("upsert: get(7) = %d, want 999", v)
	}
	if tb.n != 100 {
		t.Errorf("upsert changed Len to %d", tb.n)
	}
	if !tb.deleteHash(7, mix64(7)) {
		t.Error("delete of present key failed")
	}
	if tb.deleteHash(7, mix64(7)) {
		t.Error("delete of absent key succeeded")
	}
	if _, ok := tb.getHash(7, mix64(7)); ok {
		t.Error("deleted key still present")
	}
	if tb.n != 99 {
		t.Errorf("Len = %d after delete", tb.n)
	}
}

// TestTableBackwardShift engineers probe-chain collisions and deletes
// from the middle of the cluster: every surviving key must remain
// findable (no tombstones to hide behind — the chain is compacted).
func TestTableBackwardShift(t *testing.T) {
	for _, home := range []uint64{3, tableMinCap - 1} { // interior + wraparound cluster
		tb := newTable(0)
		keys := homeKeys(tb.mask, home, 5)
		for i, k := range keys {
			tb.putHash(k, mix64(k), int32(i))
		}
		// Delete the middle, then the head, re-probing all after each.
		for _, victim := range []int{2, 0} {
			if !tb.deleteHash(keys[victim], mix64(keys[victim])) {
				t.Fatalf("home %d: delete keys[%d] failed", home, victim)
			}
			keys = append(keys[:victim], keys[victim+1:]...)
			for _, k := range keys {
				if _, ok := tb.getHash(k, mix64(k)); !ok {
					t.Fatalf("home %d: key %d lost after backward shift", home, k)
				}
			}
		}
	}
}

// TestTableVsMapDifferential drives a Table and a map[uint64]int32
// through the same randomized put/get/delete stream and requires
// identical observable behavior, across growth boundaries.
func TestTableVsMapDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := newTable(0)
		m := map[uint64]int32{}
		// Small key space forces hits, upserts, and delete-of-present.
		key := func() uint64 { return uint64(rng.Intn(400)) }
		for op := 0; op < 5000; op++ {
			switch k := key(); rng.Intn(4) {
			case 0, 1: // put (upsert)
				v := int32(rng.Intn(1 << 20))
				tb.putHash(k, mix64(k), v)
				m[k] = v
			case 2: // get
				v, ok := tb.getHash(k, mix64(k))
				wv, wok := m[k]
				if ok != wok || (ok && v != wv) {
					t.Fatalf("seed %d op %d: get(%d) = (%d,%v), map (%d,%v)", seed, op, k, v, ok, wv, wok)
				}
			case 3: // delete
				_, wok := m[k]
				if got := tb.deleteHash(k, mix64(k)); got != wok {
					t.Fatalf("seed %d op %d: delete(%d) = %v, map %v", seed, op, k, got, wok)
				}
				delete(m, k)
			}
			if tb.n != len(m) {
				t.Fatalf("seed %d op %d: Len = %d, map %d", seed, op, tb.n, len(m))
			}
		}
		// Full sweep: every map entry findable, every table entry in the map.
		for k, v := range m {
			if got, ok := tb.getHash(k, mix64(k)); !ok || got != v {
				t.Fatalf("seed %d: final get(%d) = (%d,%v), want %d", seed, k, got, ok, v)
			}
		}
		tb.each(func(k uint64, v int32) bool {
			if wv, ok := m[k]; !ok || wv != v {
				t.Fatalf("seed %d: table holds stale (%d,%d)", seed, k, v)
			}
			return true
		})
	}
}

// TestRelationVsMapDifferential is the relation-level property test: a
// relation driven through random Add/Has/Remove/Snapshot-detach
// interleavings must hold exactly what a Go map of its tuples holds,
// including through snapshot isolation (a Remove after Snapshot
// detaches the live storage).
func TestRelationVsMapDifferential(t *testing.T) {
	same := func(r *Relation, m map[[2]int]bool) bool {
		if r.Len() != len(m) {
			return false
		}
		for k := range m {
			if !r.Has(Tuple{k[0], k[1]}) {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, m := New(2), map[[2]int]bool{}
		var snaps []*Relation
		var models []map[[2]int]bool
		for op := 0; op < 3000; op++ {
			tup := Tuple{rng.Intn(30), rng.Intn(30)}
			key := [2]int{tup[0], tup[1]}
			switch rng.Intn(6) {
			case 0, 1, 2:
				if r.Add(tup) == m[key] {
					t.Fatalf("seed %d op %d: Add(%v) with the map holding it: %v", seed, op, tup, m[key])
				}
				m[key] = true
			case 3:
				if r.AddNotIn(tup, nil) == m[key] {
					t.Fatalf("seed %d op %d: AddNotIn(%v) with the map holding it: %v", seed, op, tup, m[key])
				}
				m[key] = true
			case 4:
				if r.Remove(tup) != m[key] {
					t.Fatalf("seed %d op %d: Remove(%v) with the map holding it: %v", seed, op, tup, m[key])
				}
				delete(m, key)
			case 5:
				snaps, models = append(snaps, r.Snapshot()), append(models, maps.Clone(m))
			}
		}
		if !same(r, m) {
			t.Fatalf("seed %d: relation and map diverge: %d vs %d tuples", seed, r.Len(), len(m))
		}
		for i := range snaps {
			if !same(snaps[i], models[i]) {
				t.Fatalf("seed %d: snapshot %d diverges: %d vs %d tuples", seed, i, snaps[i].Len(), len(models[i]))
			}
		}
	}
}

// TestTableZeroAllocs is the dedup-path and probe allocation guard:
// membership probes (hit and miss), duplicate-rejecting inserts against
// a pre-sized relation, and index probes and statistics on built
// indexes must not allocate at all.
func TestTableZeroAllocs(t *testing.T) {
	r := New(2)
	r.ReserveHint(2048)
	for i := 0; i < 1000; i++ {
		r.Add(Tuple{i, i + 1})
	}
	hit, miss := Tuple{500, 501}, Tuple{500, 502}
	both := []int{0, 1}
	r.Lookup(0, 0)
	r.LookupCols(both, hit)
	cases := []struct {
		name string
		f    func()
	}{
		{"Has/hit", func() { r.Has(hit) }},
		{"Has/miss", func() { r.Has(miss) }},
		{"Add/dup", func() { r.Add(hit) }},
		{"AddNotIn/dup", func() { r.AddNotIn(hit, nil) }},
		{"AddNotIn/filtered", func() { r.AddNotIn(hit, r) }},
		{"Lookup", func() { r.Lookup(0, 500) }},
		{"LookupCols/two", func() { r.LookupCols(both, hit) }},
		{"Distinct", func() { r.Distinct(0) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs per probe, want 0", c.name, allocs)
		}
	}
}

func BenchmarkTableProbe(b *testing.B) {
	const n = 1 << 16
	keys := make([]uint64, n)
	hashes := make([]uint64, n)
	missKeys := make([]uint64, n)
	missHashes := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
		hashes[i] = mix64(keys[i])
		missKeys[i] = uint64(i + n)
		missHashes[i] = mix64(missKeys[i])
	}
	b.Run("hit", func(b *testing.B) {
		tb := newTable(n)
		for i := range keys {
			tb.putHash(keys[i], hashes[i], int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			if _, ok := tb.getHash(keys[j], hashes[j]); !ok {
				b.Fatal("miss on present key")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		tb := newTable(n)
		for i := range keys {
			tb.putHash(keys[i], hashes[i], int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			if _, ok := tb.getHash(missKeys[j], missHashes[j]); ok {
				b.Fatal("hit on absent key")
			}
		}
	})
	b.Run("grow", func(b *testing.B) {
		// Insert-heavy: builds the table from minimum capacity through
		// every rehash, the cost amortized over b.N inserts.
		for i := 0; i < b.N; i += n {
			tb := newTable(0)
			m := n
			if rem := b.N - i; rem < m {
				m = rem
			}
			for j := 0; j < m; j++ {
				tb.putHash(keys[j], hashes[j], int32(j))
			}
		}
	})
	// Index probes on a built relation of n tuples (i%256, i): Lookup
	// and Distinct on column 0, LookupCols on both columns.
	r := New(2)
	for i := 0; i < n; i++ {
		r.Add(Tuple{i & 255, i})
	}
	both := []int{0, 1}
	b.Run("Lookup", func(b *testing.B) {
		r.Lookup(0, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(r.Lookup(0, i&255)) == 0 {
				b.Fatal("empty bucket for a present value")
			}
		}
	})
	b.Run("LookupCols", func(b *testing.B) {
		vals := make([]int, 2)
		r.LookupCols(both, vals)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			vals[0], vals[1] = j&255, j
			if len(r.LookupCols(both, vals)) != 1 {
				b.Fatal("probe missed a present tuple")
			}
		}
	})
	b.Run("Distinct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r.Distinct(0) != 256 {
				b.Fatal("wrong distinct count")
			}
		}
	})
	b.Run("map-hit", func(b *testing.B) {
		// The oracle baseline for the hit benchmark.
		m := make(map[uint64]int32, n)
		for i := range keys {
			m[keys[i]] = int32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			if _, ok := m[keys[j]]; !ok {
				b.Fatal("miss on present key")
			}
		}
	})
}
