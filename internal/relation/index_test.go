package relation

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// naiveLookupCols is the reference implementation: scan every tuple and
// keep the offsets whose projection matches vals.
func naiveLookupCols(r *Relation, cols, vals []int) []int32 {
	var out []int32
	for off := 0; off < r.Len(); off++ {
		t := r.At(int32(off))
		ok := true
		for i, c := range cols {
			if t[c] != vals[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int32(off))
		}
	}
	return out
}

func sortedCopy(offs []int32) []int32 {
	out := append([]int32{}, offs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalOffsets(a, b []int32) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAllProbes compares LookupCols against the naive scan for every
// column subset and every value combination present in the relation
// (plus one absent combination).
func checkAllProbes(t *testing.T, r *Relation, label string) {
	t.Helper()
	subsets := [][]int{}
	for mask := 1; mask < 1<<r.Arity(); mask++ {
		var cols []int
		for c := 0; c < r.Arity(); c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		subsets = append(subsets, cols)
	}
	for _, cols := range subsets {
		for off := 0; off < r.Len(); off++ {
			vals := make([]int, len(cols))
			for i, c := range cols {
				vals[i] = r.At(int32(off))[c]
			}
			got := r.LookupCols(cols, vals)
			want := naiveLookupCols(r, cols, vals)
			if !equalOffsets(got, want) {
				t.Fatalf("%s: LookupCols(%v, %v) = %v, want %v", label, cols, vals, got, want)
			}
		}
		absent := make([]int, len(cols))
		for i := range absent {
			absent[i] = 1 << 20 // never interned by these tests
		}
		if got := r.LookupCols(cols, absent); len(got) != 0 {
			t.Fatalf("%s: LookupCols(%v, absent) = %v, want empty", label, cols, got)
		}
	}
}

func randomIdxRelation(rng *rand.Rand, arity, n, domain int) *Relation {
	r := New(arity)
	for i := 0; i < n; i++ {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		r.Add(t)
	}
	return r
}

func TestLookupColsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, arity := range []int{1, 2, 3, 4} {
		r := randomIdxRelation(rng, arity, 60, 5)
		checkAllProbes(t, r, "fresh")
	}
}

func TestLookupColsSpillPath(t *testing.T) {
	// Arity 4 with huge ids: full-tuple projections exceed the 16-bit
	// packed width and must take the spill encoding; narrow projections
	// still pack.  Build/probe consistency is what is under test.
	r := New(4)
	big := 1 << 40
	r.Add(Tuple{big, 1, big + 2, 3})
	r.Add(Tuple{big, 1, big + 5, 7})
	r.Add(Tuple{4, 1, 2, 3})
	if got := r.LookupCols([]int{0, 2}, []int{big, big + 2}); len(got) != 1 || got[0] != 0 {
		t.Errorf("spill probe = %v, want [0]", got)
	}
	if got := r.LookupCols([]int{1}, []int{1}); len(got) != 3 {
		t.Errorf("packed probe = %v, want 3 offsets", got)
	}
	checkAllProbes(t, r, "spill")
}

// TestCompositeInvalidation exercises every mutating entry point and
// re-verifies probes afterwards: stale composite indexes would return
// offsets of removed or relocated tuples.
func TestCompositeInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomIdxRelation(rng, 3, 40, 4)
	checkAllProbes(t, r, "initial")

	// Add: new tuples must become visible to existing indexes.
	for i := 0; i < 10; i++ {
		r.Add(Tuple{rng.Intn(4), rng.Intn(4), rng.Intn(4) + 4})
	}
	checkAllProbes(t, r, "after Add")

	// Remove: swaps the last tuple into the vacated arena slot, so a
	// stale index would report wrong offsets, not just extra ones.
	for i := 0; i < 10 && r.Len() > 0; i++ {
		victim := slices.Clone(r.At(int32(rng.Intn(r.Len()))))
		if !r.Remove(victim) {
			t.Fatalf("Remove(%v) = false for present tuple", victim)
		}
	}
	checkAllProbes(t, r, "after Remove")

	// UnionWith invalidates once after the bulk insert.
	other := randomIdxRelation(rng, 3, 25, 6)
	r.LookupCols([]int{0, 1}, []int{0, 0}) // force a build to go stale
	r.UnionWith(other)
	checkAllProbes(t, r, "after UnionWith")
}

func TestDistinct(t *testing.T) {
	r := New(2)
	r.Add(Tuple{0, 0})
	r.Add(Tuple{0, 1})
	r.Add(Tuple{1, 2})
	if got := r.Distinct(0); got != 2 {
		t.Errorf("Distinct(0) = %d, want 2", got)
	}
	if got := r.Distinct(1); got != 3 {
		t.Errorf("Distinct(1) = %d, want 3", got)
	}
	r.Remove(Tuple{1, 2})
	if got := r.Distinct(0); got != 1 {
		t.Errorf("Distinct(0) after Remove = %d, want 1", got)
	}
	if got := r.Distinct(1); got != 2 {
		t.Errorf("Distinct(1) after Remove = %d, want 2", got)
	}
}

// TestConcurrentLookupCols has many readers probing overlapping column
// subsets while the indexes build lazily; run under -race by CI.
func TestConcurrentLookupCols(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomIdxRelation(rng, 3, 200, 6)
	want01 := naiveLookupCols(r, []int{0, 1}, []int{2, 3})
	want12 := naiveLookupCols(r, []int{1, 2}, []int{1, 4})
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !equalOffsets(r.LookupCols([]int{0, 1}, []int{2, 3}), want01) {
					errs <- "LookupCols(0,1) diverged"
					return
				}
				if !equalOffsets(r.LookupCols([]int{1, 2}, []int{1, 4}), want12) {
					errs <- "LookupCols(1,2) diverged"
					return
				}
				if r.Distinct(g%3) <= 0 {
					errs <- "Distinct returned non-positive count"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestLookupColsPanics(t *testing.T) {
	r := New(3)
	r.Add(Tuple{1, 2, 3})
	for _, cols := range [][]int{{}, {-1}, {3}, {1, 0}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LookupCols(%v) did not panic", cols)
				}
			}()
			r.LookupCols(cols, make([]int, len(cols)))
		}()
	}
}
