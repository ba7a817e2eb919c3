package relation

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestPackKeyInjectivePerArity(t *testing.T) {
	f := func(raw [2][4]uint16) bool {
		a := Tuple{int(raw[0][0]), int(raw[0][1]), int(raw[0][2]), int(raw[0][3])}
		b := Tuple{int(raw[1][0]), int(raw[1][1]), int(raw[1][2]), int(raw[1][3])}
		ka, oka := packKey(a)
		kb, okb := packKey(b)
		if !oka || !okb {
			return false // uint16 elements always pack at arity 4
		}
		return (ka == kb) == slices.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPackKeySpillThreshold(t *testing.T) {
	// Arity 4 packs 16 bits per element: 65535 packs, 65536 spills.
	if _, ok := packKey(Tuple{65535, 0, 0, 0}); !ok {
		t.Error("in-range tuple did not pack")
	}
	if _, ok := packKey(Tuple{65536, 0, 0, 0}); ok {
		t.Error("out-of-range tuple packed")
	}
	if _, ok := packKey(Tuple{-1}); ok {
		t.Error("negative element packed")
	}
	if k, ok := packKey(Tuple{}); !ok || k != 0 {
		t.Errorf("empty tuple: key=%d ok=%v", k, ok)
	}
}

// packedCapacity returns the largest universe size whose tuples of the
// given arity always take the packed uint64 path; 0 means unbounded.
// Larger universes still work — their tuples spill to the byte-string
// encoding — but lose the allocation-free membership test.
func packedCapacity(arity int) int {
	bits := packBits(arity)
	if bits >= 63 {
		return 0
	}
	c := uint64(1) << bits
	if c > uint64(^uint(0)>>1) {
		// Wider than this platform's int (e.g. arity 2 on 32-bit):
		// every representable id fits, so the packed path is unbounded.
		return 0
	}
	return int(c)
}

func TestPackedCapacity(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1 << 32, 3: 1 << 21, 4: 1 << 16, 8: 1 << 8}
	for arity, want := range cases {
		if got := packedCapacity(arity); got != want {
			t.Errorf("packedCapacity(%d) = %d, want %d", arity, got, want)
		}
	}
}

func TestSpillKeyUnambiguous(t *testing.T) {
	// Distinct wide tuples must get distinct spill keys, including across
	// the 4-byte/8-byte width boundary.
	pairs := [][2]Tuple{
		{{1 << 40, 0}, {0, 1 << 40}},
		{{1 << 33, 5}, {5, 1 << 33}},
		{{1 << 31, 1 << 31}, {1 << 32, 0}},
	}
	for _, p := range pairs {
		if spillKey(p[0]) == spillKey(p[1]) {
			t.Errorf("spill key collision between %v and %v", p[0], p[1])
		}
	}
	if spillKey(Tuple{7, 8}) == spillKey(Tuple{8, 7}) {
		t.Error("spill key ignores element order")
	}
}

// TestRelationSpillPath drives a relation whose tuples exceed the
// packed width, so membership goes through the fallback encoding.
func TestRelationSpillPath(t *testing.T) {
	const big = 1 << 30 // arity 5 → 12 bits per element, forces spill
	r := New(5)
	if !r.Add(Tuple{big, 1, 2, 3, 4}) || !r.Add(Tuple{0, 1, 2, 3, 4}) {
		t.Fatal("Add failed")
	}
	if r.Add(Tuple{big, 1, 2, 3, 4}) {
		t.Error("duplicate spilled tuple added twice")
	}
	if !r.Has(Tuple{big, 1, 2, 3, 4}) || r.Has(Tuple{big, 1, 2, 3, 5}) {
		t.Error("Has wrong on spill path")
	}
	if got := len(r.Lookup(0, big)); got != 1 {
		t.Errorf("Lookup on spilled tuple column = %d entries", got)
	}
	if !r.Remove(Tuple{big, 1, 2, 3, 4}) || r.Len() != 1 {
		t.Error("Remove on spill path failed")
	}
	if !r.Clone().Equal(r) {
		t.Error("clone with spill map not Equal")
	}
}

// TestLookupInvalidation checks that every mutating operation refreshes
// the offset index that Lookup serves — the classic stale-cache bug the
// CI race job guards.
func TestLookupInvalidation(t *testing.T) {
	r := fromTuples(2, []Tuple{{1, 2}, {1, 3}, {2, 3}})
	if got := len(r.Lookup(0, 1)); got != 2 {
		t.Fatalf("initial Lookup(0,1) = %d", got)
	}
	r.Add(Tuple{1, 9})
	if got := len(r.Lookup(0, 1)); got != 3 {
		t.Errorf("stale index after Add: %d", got)
	}
	r.Remove(Tuple{1, 2})
	if got := len(r.Lookup(0, 1)); got != 2 {
		t.Errorf("stale index after Remove: %d", got)
	}
	r.UnionWith(fromTuples(2, []Tuple{{1, 5}, {4, 4}}))
	if got := len(r.Lookup(0, 1)); got != 3 {
		t.Errorf("stale index after UnionWith: %d", got)
	}
	// Offsets returned by Lookup resolve through At to matching tuples.
	for _, off := range r.Lookup(1, 3) {
		if tu := r.At(off); tu[1] != 3 {
			t.Errorf("At(%d) = %v, want column 1 == 3", off, tu)
		}
	}
}

// TestLookupAfterRemoveSwap exercises the swap-delete: removing a tuple
// moves the last arena entry into its slot, and the patched index must
// agree.
func TestLookupAfterRemoveSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := New(2)
	ref := make(map[[2]int]bool)
	for i := 0; i < 400; i++ {
		tu := Tuple{rng.Intn(8), rng.Intn(8)}
		if rng.Intn(3) == 0 {
			r.Remove(tu)
			delete(ref, [2]int{tu[0], tu[1]})
		} else {
			r.Add(tu)
			ref[[2]int{tu[0], tu[1]}] = true
		}
		if rng.Intn(10) == 0 { // periodically force an index build
			r.Lookup(0, tu[0])
		}
	}
	if r.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ref))
	}
	for col := 0; col < 2; col++ {
		total := 0
		for v := 0; v < 8; v++ {
			for _, off := range r.Lookup(col, v) {
				tu := r.At(off)
				if tu[col] != v || !ref[[2]int{tu[0], tu[1]}] {
					t.Fatalf("index entry %v wrong for col %d val %d", tu, col, v)
				}
			}
			total += len(r.Lookup(col, v))
		}
		if total != r.Len() {
			t.Fatalf("col %d index covers %d tuples, want %d", col, total, r.Len())
		}
	}
}

// TestConcurrentLookup hammers the lazy index build from many readers;
// run under -race it proves the synchronization of compFor.
func TestConcurrentLookup(t *testing.T) {
	r := New(2)
	for i := 0; i < 50; i++ {
		r.Add(Tuple{i % 7, i % 5})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if len(r.Lookup(i%2, i%7)) > 8+2 {
					t.Error("impossible bucket size")
					return
				}
				if !r.Has(Tuple{i % 7, i % 5}) {
					t.Error("Has lost a tuple during concurrent reads")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTuplesSortedInPlace checks that Tuples, which sorts packed keys in
// the tail of its own output and unpacks them in place, returns exactly
// the tuples in Compare order, on the relation and on a snapshot view
// taken halfway, which shares the key table and must skip the offsets
// appended after it, whichever layout that table has: at arity
// 2 the ids reach past 2³¹, so the keys carry the top bit the sign flip
// must order as unsigned; the ids below 40 fill their box, so the table
// is dense; at arity 9 the ids all pack, or one stored last spills,
// after every key but its own was written, and the comparison sort
// takes over.
func TestTuplesSortedInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sorted := func(r *Relation) []Tuple {
		var want []Tuple
		r.Each(func(tu Tuple) bool {
			want = append(want, slices.Clone(tu))
			return true
		})
		slices.SortFunc(want, Tuple.Compare)
		return want
	}
	for _, tc := range []struct {
		arity, n, limit int
		spill           bool
		layout          string
	}{
		{0, 0, 1, false, "hash"}, {0, 1, 1, false, "hash"},
		{1, 3000, 1 << 62, false, "hash"},
		{2, 3000, 1 << 31, false, "hash"}, {2, 1, 1 << 31, false, "hash"},
		{2, 1000, 40, false, "dense"},
		{4, 3000, 1 << 16, false, "hash"},
		{9, 3000, 1 << 7, false, "hash"}, {9, 3000, 1 << 7, true, "hash"},
	} {
		r := New(tc.arity)
		var view *Relation
		for r.Len() < tc.n {
			if r.Len() == tc.n/2 && view == nil {
				view = r.Snapshot()
			}
			tu := make(Tuple, tc.arity)
			for i := range tu {
				tu[i] = rng.Intn(tc.limit)
			}
			if tc.arity == 2 && tc.limit == 1<<31 && rng.Intn(2) == 0 {
				tu[0] += 1 << 31
			}
			r.Add(tu)
		}
		if tc.spill {
			r.Add(Tuple{1 << 7, 0, 0, 0, 0, 0, 0, 0, 0})
		}
		if r.table != nil && layout(r.table) != tc.layout {
			t.Fatalf("arity %d, ids < %d: key table is %s, want %s", tc.arity, tc.limit, layout(r.table), tc.layout)
		}
		for _, x := range []*Relation{r, view} {
			if x == nil {
				continue
			}
			want, got := sorted(x), x.Tuples()
			if len(got) != len(want) {
				t.Fatalf("arity %d, ids < %d, %d tuples: Tuples has %d", tc.arity, tc.limit, len(want), len(got))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("arity %d, ids < %d, %d tuples: tuple %d is %v, want %v", tc.arity, tc.limit, len(want), i, got[i], want[i])
				}
			}
		}
	}
}

// TestEqualAcrossStorageOrders checks that Equal is order-insensitive:
// the same set inserted in different orders (hence different arenas)
// compares equal.
func TestEqualAcrossStorageOrders(t *testing.T) {
	a := fromTuples(2, []Tuple{{1, 2}, {3, 4}, {5, 6}})
	b := fromTuples(2, []Tuple{{5, 6}, {1, 2}, {3, 4}})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("Equal depends on insertion order")
	}
	b.Remove(Tuple{1, 2})
	b.Add(Tuple{1, 7})
	if a.Equal(b) {
		t.Error("Equal missed a differing tuple")
	}
}
