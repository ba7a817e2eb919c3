package relation

import (
	"sync"
	"testing"
)

// TestAddNotIn covers the fused frontier emit: filter hits, duplicate
// rejection, insertion, nil filter, and the spill path.
func TestAddNotIn(t *testing.T) {
	filter := fromTuples(2, []Tuple{{1, 2}, {3, 4}})
	r := New(2)
	if r.AddNotIn(Tuple{1, 2}, filter) {
		t.Error("tuple in filter was inserted")
	}
	if !r.AddNotIn(Tuple{5, 6}, filter) {
		t.Error("new tuple not inserted")
	}
	if r.AddNotIn(Tuple{5, 6}, filter) {
		t.Error("duplicate re-inserted")
	}
	if !r.AddNotIn(Tuple{7, 8}, nil) {
		t.Error("nil filter must degenerate to Add")
	}
	if r.Len() != 2 || !r.Has(Tuple{5, 6}) || !r.Has(Tuple{7, 8}) {
		t.Errorf("unexpected contents: %v", r.Tuples())
	}

	// Spill path: ids beyond the packed width for arity 2 (≥ 2³²).
	big := 1 << 40
	sf := New(2)
	sf.Add(Tuple{big, 1})
	sr := New(2)
	if sr.AddNotIn(Tuple{big, 1}, sf) {
		t.Error("spilled tuple in filter was inserted")
	}
	if !sr.AddNotIn(Tuple{big, 2}, sf) {
		t.Error("new spilled tuple not inserted")
	}
}

// TestAppendDisjointConcat covers the probe-free union-back of a
// frontier delta: disjoint relations concatenated by AppendDisjoint.
func TestAppendDisjointConcat(t *testing.T) {
	c := New(2)
	for _, p := range []*Relation{fromTuples(2, []Tuple{{0, 1}, {2, 3}}), fromTuples(2, []Tuple{{4, 5}}), New(2)} {
		c.AppendDisjoint(p)
	}
	if c.Len() != 3 {
		t.Fatalf("AppendDisjoint: len = %d, want 3", c.Len())
	}
	for _, want := range []Tuple{{0, 1}, {2, 3}, {4, 5}} {
		if !c.Has(want) {
			t.Errorf("AppendDisjoint missing %v", want)
		}
	}
	// The concatenated relation must be fully functional: probes, adds.
	if got := c.Lookup(0, 2); len(got) != 1 || c.At(got[0])[1] != 3 {
		t.Errorf("Lookup on concatenated relation broken: %v", got)
	}
	if !c.Add(Tuple{6, 7}) || c.Len() != 4 {
		t.Error("Add after AppendDisjoint broken")
	}
}

// TestSpillAddNotInWithFilter drives the fused frontier emit over
// tuples that all take the spill path (ids ≥ 2³² at arity 2), and over
// a mixed packed/spill stream: a tuple the filter relation holds is
// rejected, a fresh one lands exactly once.
func TestSpillAddNotInWithFilter(t *testing.T) {
	big := 1 << 40
	cur := New(2)
	for i := 0; i < 500; i++ {
		cur.Add(Tuple{big + i, i})
	}
	out := New(2)
	cur.Each(func(tp Tuple) bool {
		if out.AddNotIn(tp, cur) {
			t.Fatalf("spill tuple %v in the filter was inserted", tp)
		}
		return true
	})
	for i := 0; i < 500; i++ {
		tp := Tuple{big + i, i + 1000}
		if !out.AddNotIn(tp, cur) {
			t.Fatalf("fresh spill tuple %v rejected", tp)
		}
		if out.AddNotIn(tp, cur) {
			t.Fatalf("fresh spill tuple %v inserted twice", tp)
		}
	}
	if out.Len() != 500 {
		t.Fatalf("out holds %d tuples, want 500", out.Len())
	}

	mixed := New(2)
	for i := 0; i < 32; i++ {
		tp := Tuple{i, i} // packed
		if i%2 == 1 {
			tp = Tuple{big + i, i} // spill
		}
		mixed.Add(tp)
	}
	mixed.Each(func(tp Tuple) bool {
		if New(2).AddNotIn(tp, mixed) {
			t.Fatalf("mixed tuple %v not rejected by its own set", tp)
		}
		return true
	})
}

// TestReserveHint checks pre-sizing is contents-neutral and only acts
// on empty relations.
func TestReserveHint(t *testing.T) {
	r := New(2)
	r.ReserveHint(64)
	r.Add(Tuple{1, 2})
	r.ReserveHint(1024) // non-empty: must be a no-op, not a reset
	if r.Len() != 1 || !r.Has(Tuple{1, 2}) {
		t.Fatalf("ReserveHint disturbed contents: %v", r.Tuples())
	}
}

// TestTupleHashSpread sanity-checks that the hash the key table probes
// a tuple with, mix64 of its packed key, actually spreads structured
// keys: consecutive packed tuples must not collapse into a few buckets.
func TestTupleHashSpread(t *testing.T) {
	const buckets = 8
	hash := func(tp Tuple) uint64 {
		k, _ := packKey(tp)
		return mix64(k)
	}
	seen := make(map[uint64]int)
	for x := 0; x < 32; x++ {
		for y := 0; y < 32; y++ {
			seen[hash(Tuple{x, y})%buckets]++
		}
	}
	if len(seen) != buckets {
		t.Fatalf("hash uses %d of %d buckets", len(seen), buckets)
	}
	for b, n := range seen {
		if n < 1024/buckets/4 {
			t.Errorf("bucket %d badly underfull: %d of 1024", b, n)
		}
	}
	if hash(Tuple{1, 2}) != hash(Tuple{1, 2}) {
		t.Error("hash not deterministic")
	}
}

// TestIndexExtendsOnAppend is the regression guard for append-friendly
// indexes: a Lookup after appends must see the new tuples (the index is
// extended by the arena suffix, not served stale), and a Remove must
// leave no stale offset behind.
func TestIndexExtendsOnAppend(t *testing.T) {
	r := fromTuples(2, []Tuple{{0, 1}, {1, 2}})
	if got := r.Lookup(0, 1); len(got) != 1 {
		t.Fatalf("initial Lookup: %v", got)
	}
	// Append after the index is built: extension must pick them up.
	r.Add(Tuple{1, 5})
	r.Add(Tuple{2, 6})
	if got := r.Lookup(0, 1); len(got) != 2 {
		t.Fatalf("Lookup after append: %d offsets, want 2", len(got))
	}
	if got := r.LookupCols([]int{0, 1}, []int{1, 5}); len(got) != 1 {
		t.Fatalf("LookupCols after append: %v", got)
	}
	if r.Distinct(0) != 3 {
		t.Fatalf("Distinct after append = %d, want 3", r.Distinct(0))
	}
	// Structural mutation: offsets are rewritten, a stale index would
	// return the swapped-in tuple under the removed key.
	r.Remove(Tuple{0, 1})
	if got := r.Lookup(0, 0); len(got) != 0 {
		t.Fatalf("Lookup after Remove returned stale offsets: %v", got)
	}
	if got := r.Lookup(0, 2); len(got) != 1 || r.At(got[0])[1] != 6 {
		t.Fatalf("Lookup after Remove: %v", got)
	}
	if got := r.LookupCols([]int{0, 1}, []int{2, 6}); len(got) != 1 {
		t.Fatalf("LookupCols after Remove: %v", got)
	}
}

// TestIndexExtensionPreservesSnapshots: a snapshot view probed before
// and after the live relation grows keeps answering for its own prefix.
func TestIndexExtensionPreservesSnapshots(t *testing.T) {
	r := fromTuples(2, []Tuple{{0, 1}, {0, 2}})
	snap := r.Snapshot()
	if got := snap.Lookup(0, 0); len(got) != 2 {
		t.Fatalf("snapshot Lookup before growth: %v", got)
	}
	r.Add(Tuple{0, 3})
	if got := r.Lookup(0, 0); len(got) != 3 {
		t.Fatalf("live Lookup after growth: %v", got)
	}
	if got := snap.Lookup(0, 0); len(got) != 2 {
		t.Fatalf("snapshot sees appended tuples: %v", got)
	}
	if snap.Has(Tuple{0, 3}) {
		t.Error("snapshot Has sees appended tuple")
	}
}

// TestConcurrentLookupDuringExtension hammers Lookup from many readers
// on a relation whose index was built before a batch of appends: every
// reader triggers (or races to trigger) the same extension and must see
// the complete answer.  Run under -race in CI.
func TestConcurrentLookupDuringExtension(t *testing.T) {
	r := New(2)
	for i := 0; i < 256; i++ {
		r.Add(Tuple{i % 7, i})
	}
	r.Lookup(0, 0) // build at 256
	for i := 256; i < 1024; i++ {
		r.Add(Tuple{i % 7, i})
	}
	want := 0
	r.Each(func(t Tuple) bool {
		if t[0] == 3 {
			want++
		}
		return true
	})
	var wg sync.WaitGroup
	errs := make(chan int, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := len(r.Lookup(0, 3)); got != want {
				errs <- got
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent Lookup during extension: %d offsets, want %d", got, want)
	}
}
