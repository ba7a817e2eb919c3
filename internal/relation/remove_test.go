package relation

import (
	"math/rand"
	"testing"
)

// Remove-path index coverage.
//
// Appends extend published indexes in place (growth_test.go); Remove is
// the one mutation that rewrites arena offsets (swap-with-last) and
// must therefore patch every built index for the two offsets that
// changed.  These tests drive that branch directly for the per-column
// indexes, the composite indexes, and the Distinct stats, against a
// brute-force oracle; index_diff_test.go is the randomized form.

// bruteOffsets returns the arena offsets matching cols=vals by scan.
func bruteOffsets(r *Relation, cols, vals []int) []int32 {
	var out []int32
	for off := int32(0); off < int32(r.Len()); off++ {
		t := r.At(off)
		ok := true
		for i, c := range cols {
			if t[c] != vals[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, off)
		}
	}
	return out
}

func sameOffsets(a, b []int32) bool {
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

func TestRemovePatchesColumnIndex(t *testing.T) {
	r := New(2)
	for i := 0; i < 10; i++ {
		r.Add(Tuple{i % 3, i})
	}
	// Build and pin the index on column 0, then Remove a middle tuple:
	// the swap-with-last moves an offset the index still points at, so
	// a correct implementation must patch it.
	if got := len(r.Lookup(0, 0)); got != 4 {
		t.Fatalf("pre-remove Lookup(0,0) = %d offsets, want 4", got)
	}
	if !r.Remove(Tuple{0, 0}) {
		t.Fatal("Remove failed")
	}
	if got, want := r.Lookup(0, 0), bruteOffsets(r, []int{0}, []int{0}); !sameOffsets(got, want) {
		t.Fatalf("post-remove Lookup(0,0) = %v, want %v", got, want)
	}
	// Distinct reads the one-column index and must also see a value's
	// last tuple disappear.
	r2 := New(1)
	r2.Add(Tuple{1})
	r2.Add(Tuple{2})
	if r2.Distinct(0) != 2 {
		t.Fatal("Distinct before Remove")
	}
	r2.Remove(Tuple{2})
	if got := r2.Distinct(0); got != 1 {
		t.Fatalf("Distinct after Remove = %d, want 1", got)
	}
}

func TestRemovePatchesCompositeIndex(t *testing.T) {
	r := New(3)
	for i := 0; i < 12; i++ {
		r.Add(Tuple{i % 2, i % 3, i})
	}
	cols := []int{0, 1}
	if got := len(r.LookupCols(cols, []int{0, 0})); got != 2 {
		t.Fatalf("pre-remove LookupCols = %d offsets, want 2", got)
	}
	// Remove a tuple that is NOT last in the arena, so another tuple is
	// swapped into its offset.
	if !r.Remove(Tuple{0, 0, 0}) {
		t.Fatal("Remove failed")
	}
	for _, probe := range [][]int{{0, 0}, {1, 1}, {0, 2}} {
		got := r.LookupCols(cols, probe)
		want := bruteOffsets(r, cols, probe)
		if !sameOffsets(got, want) {
			t.Fatalf("post-remove LookupCols(%v) = %v, want %v", probe, got, want)
		}
	}
}

// TestPropRemoveInterleavedProbes is the property form: random
// add/remove streams with index probes interleaved, so indexes are
// built at many different arena states and every probe after a Remove
// reads a patched index; results always match the brute-force scan.
func TestPropRemoveInterleavedProbes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New(2)
		var live []Tuple
		for step := 0; step < 200; step++ {
			switch {
			case len(live) == 0 || rng.Intn(3) != 0:
				tpl := Tuple{rng.Intn(4), rng.Intn(4)}
				if r.Add(tpl) {
					live = append(live, tpl)
				}
			default:
				i := rng.Intn(len(live))
				if !r.Remove(live[i]) {
					t.Fatalf("seed %d step %d: Remove(%v) failed", seed, step, live[i])
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if step%7 == 0 {
				c, v := rng.Intn(2), rng.Intn(4)
				if got, want := r.Lookup(c, v), bruteOffsets(r, []int{c}, []int{v}); !sameOffsets(got, want) {
					t.Fatalf("seed %d step %d: Lookup(%d,%d) = %v, want %v", seed, step, c, v, got, want)
				}
			}
			if step%11 == 0 {
				vals := []int{rng.Intn(4), rng.Intn(4)}
				if got, want := r.LookupCols([]int{0, 1}, vals), bruteOffsets(r, []int{0, 1}, vals); !sameOffsets(got, want) {
					t.Fatalf("seed %d step %d: LookupCols(%v) = %v, want %v", seed, step, vals, got, want)
				}
			}
		}
		if r.Len() != len(live) {
			t.Fatalf("seed %d: %d tuples, oracle has %d", seed, r.Len(), len(live))
		}
	}
}

// TestRemoveDetachesFromSnapshot pins the snapshot interaction: a
// Remove on a sealed relation copies storage, the snapshot keeps its
// view, and both sides' indexes answer for their own contents.
func TestRemoveDetachesFromSnapshot(t *testing.T) {
	r := New(2)
	for i := 0; i < 6; i++ {
		r.Add(Tuple{i, i + 1})
	}
	snap := r.Snapshot()
	if got := len(snap.Lookup(0, 2)); got != 1 {
		t.Fatalf("snapshot Lookup = %d, want 1", got)
	}
	if !r.Remove(Tuple{2, 3}) {
		t.Fatal("Remove failed")
	}
	if snap.Len() != 6 || len(snap.Lookup(0, 2)) != 1 {
		t.Fatal("snapshot changed by Remove on the source")
	}
	if r.Len() != 5 || len(r.Lookup(0, 2)) != 0 {
		t.Fatalf("source after Remove: len=%d Lookup(0,2)=%v", r.Len(), r.Lookup(0, 2))
	}
	if got, want := r.LookupCols([]int{0, 1}, []int{4, 5}), bruteOffsets(r, []int{0, 1}, []int{4, 5}); !sameOffsets(got, want) {
		t.Fatalf("detached LookupCols = %v, want %v", got, want)
	}
}

// TestRemoveSpillPath drives Remove through the byte-string spill
// encoding: ids beyond the packed width take the secondary map, and
// the swap-with-last bookkeeping must update it symmetrically.
func TestRemoveSpillPath(t *testing.T) {
	big := PackedCapacity(4) // ids ≥ big spill for arity 4
	if big == 0 {
		t.Skip("arity 4 packs unbounded on this platform")
	}
	r := New(4)
	var tuples []Tuple
	for i := 0; i < 8; i++ {
		tpl := Tuple{big + i, i, big + 2*i, 1}
		tuples = append(tuples, tpl)
		r.Add(tpl)
	}
	for i, tpl := range tuples {
		if i%2 == 0 {
			continue
		}
		if !r.Remove(tpl) {
			t.Fatalf("Remove(%v) failed", tpl)
		}
	}
	for i, tpl := range tuples {
		if got, want := r.Has(tpl), i%2 == 0; got != want {
			t.Fatalf("Has(%v) = %v, want %v", tpl, got, want)
		}
	}
	if got, want := r.Lookup(3, 1), bruteOffsets(r, []int{3}, []int{1}); !sameOffsets(got, want) {
		t.Fatalf("spill Lookup = %v, want %v", got, want)
	}
}

func TestRemoveLastAndMissing(t *testing.T) {
	r := New(1)
	r.Add(Tuple{7})
	if r.Remove(Tuple{9}) {
		t.Fatal("Remove of a missing tuple succeeded")
	}
	if !r.Remove(Tuple{7}) || r.Len() != 0 {
		t.Fatal("Remove of the last tuple failed")
	}
	if got := r.Lookup(0, 7); len(got) != 0 {
		t.Fatalf("Lookup on emptied relation = %v", got)
	}
}

// TestRemoveOwnView is the regression test for removing a tuple through
// a view of the relation's own storage: the swap overwrites the slot the
// argument aliases, so keys and indexes must be settled from the removed
// tuple's ids, not from what the slot holds afterwards.
func TestRemoveOwnView(t *testing.T) {
	r := New(3)
	first, last := Tuple{1, 2, 3}, Tuple{7, 8, 9}
	for _, tpl := range []Tuple{first, {4, 5, 6}, last} {
		r.Add(tpl)
	}
	cols := []int{0, 2}
	r.Lookup(0, 1)
	r.LookupCols(cols, []int{1, 3})
	if !r.Remove(r.At(0)) {
		t.Fatal("Remove of the first tuple failed")
	}
	if r.Has(first) || !r.Has(last) || r.Len() != 2 {
		t.Fatalf("after Remove: Has(first)=%v Has(last)=%v Len=%d", r.Has(first), r.Has(last), r.Len())
	}
	for _, tpl := range []Tuple{first, last} {
		if got, want := r.Lookup(0, tpl[0]), bruteOffsets(r, []int{0}, tpl[:1]); !sameOffsets(got, want) {
			t.Fatalf("Lookup(0,%d) = %v, want %v", tpl[0], got, want)
		}
		vals := []int{tpl[0], tpl[2]}
		if got, want := r.LookupCols(cols, vals), bruteOffsets(r, cols, vals); !sameOffsets(got, want) {
			t.Fatalf("LookupCols(%v) = %v, want %v", vals, got, want)
		}
	}
}

// TestRemoveAllOwnSnapshot empties a relation through a snapshot of
// itself: the snapshot keeps the chunks, the relation writes copies.
func TestRemoveAllOwnSnapshot(t *testing.T) {
	r := New(2)
	for i := 0; i < 2*chunkLen+3; i++ {
		r.Add(Tuple{i, i % 7})
	}
	r.Lookup(1, 3)
	snap := r.Snapshot()
	if got := r.RemoveAll(snap); got != snap.Len() || r.Len() != 0 {
		t.Fatalf("RemoveAll(own snapshot) removed %d of %d, %d left", got, snap.Len(), r.Len())
	}
	if snap.Len() != 2*chunkLen+3 || !snap.Has(Tuple{chunkLen, chunkLen % 7}) || len(snap.Lookup(1, 3)) == 0 {
		t.Fatal("snapshot disturbed by RemoveAll on its source")
	}
	if r.Has(Tuple{0, 0}) || len(r.Lookup(1, 3)) != 0 {
		t.Fatal("emptied relation still answers")
	}
}

// TestRemoveArityEdges covers the arities whose tuples are not plain
// packed views: arity 0 (a zero-length view) and arity 9 (wider than
// the projection buffers, and past the packed width for large ids).
func TestRemoveArityEdges(t *testing.T) {
	r0 := New(0)
	r0.Add(Tuple{})
	if !r0.Remove(r0.At(0)) || r0.Len() != 0 || r0.Has(Tuple{}) {
		t.Fatal("arity 0: Remove of the empty tuple failed")
	}
	if r0.Remove(Tuple{}) || !r0.Add(Tuple{}) || r0.Len() != 1 {
		t.Fatal("arity 0: relation broken after Remove")
	}

	r9 := New(9)
	wide := func(i int) Tuple { return Tuple{i, 1, 2, 3, 4, 5, 6, 7, 1 << 20} }
	for i := 0; i < 5; i++ {
		r9.Add(wide(i))
	}
	cols := []int{0, 8}
	r9.Lookup(0, 0)
	r9.LookupCols(cols, []int{0, 1 << 20})
	if !r9.Remove(r9.At(0)) || r9.Has(wide(0)) || r9.Len() != 4 {
		t.Fatal("arity 9: Remove through an own view failed")
	}
	for i := 0; i < 5; i++ {
		if got, want := r9.Lookup(0, i), bruteOffsets(r9, []int{0}, []int{i}); !sameOffsets(got, want) {
			t.Fatalf("arity 9: Lookup(0,%d) = %v, want %v", i, got, want)
		}
		vals := []int{i, 1 << 20}
		if got, want := r9.LookupCols(cols, vals), bruteOffsets(r9, cols, vals); !sameOffsets(got, want) {
			t.Fatalf("arity 9: LookupCols(%v) = %v, want %v", vals, got, want)
		}
	}
}
