package relation

import (
	"sync"
	"testing"
)

func tuples(ts ...[]int) []Tuple {
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		out[i] = Tuple(t)
	}
	return out
}

func TestSnapshotIsolatesFromAppends(t *testing.T) {
	r := fromTuples(2, tuples([]int{0, 1}, []int{1, 2}))
	s := r.Snapshot()
	if s.Len() != 2 || !s.Has(Tuple{0, 1}) {
		t.Fatalf("snapshot missing original tuples")
	}
	r.Add(Tuple{2, 3})
	if s.Len() != 2 {
		t.Fatalf("snapshot grew with parent: len=%d", s.Len())
	}
	if s.Has(Tuple{2, 3}) {
		t.Fatalf("snapshot sees tuple added after it was taken")
	}
	if !r.Has(Tuple{2, 3}) || r.Len() != 3 {
		t.Fatalf("parent lost the appended tuple")
	}
	// Indexes on the view cover only the view.
	if got := len(s.Lookup(0, 2)); got != 0 {
		t.Fatalf("snapshot index sees later tuple: %d hits", got)
	}
	if got := len(r.Lookup(0, 2)); got != 1 {
		t.Fatalf("parent index misses later tuple: %d hits", got)
	}
}

func TestSnapshotSurvivesRemove(t *testing.T) {
	r := fromTuples(2, tuples([]int{0, 1}, []int{1, 2}, []int{2, 3}))
	s := r.Snapshot()
	if !r.Remove(Tuple{0, 1}) {
		t.Fatalf("remove failed")
	}
	if r.Has(Tuple{0, 1}) || r.Len() != 2 {
		t.Fatalf("parent still has removed tuple")
	}
	if !s.Has(Tuple{0, 1}) || s.Len() != 3 {
		t.Fatalf("snapshot lost tuple removed from parent")
	}
	for _, tu := range s.Tuples() {
		if !s.Has(tu) {
			t.Fatalf("snapshot arena/key mismatch on %v", tu)
		}
	}
}

func TestSnapshotOfSnapshot(t *testing.T) {
	r := fromTuples(1, tuples([]int{4}))
	s := r.Snapshot()
	if s2 := s.Snapshot(); s2 != s {
		t.Fatalf("snapshot of a snapshot should be itself")
	}
}

func TestSnapshotMutationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mutating a snapshot did not panic")
		}
	}()
	r := fromTuples(1, tuples([]int{0}))
	r.Snapshot().Add(Tuple{1})
}

func TestMutableOnSnapshotCopies(t *testing.T) {
	r := fromTuples(1, tuples([]int{0}))
	s := r.Snapshot()
	m := s.Mutable()
	m.Add(Tuple{7})
	if s.Has(Tuple{7}) || r.Has(Tuple{7}) {
		t.Fatalf("Mutable copy leaked into the snapshot or parent")
	}
	if !m.Has(Tuple{0}) {
		t.Fatalf("Mutable copy lost contents")
	}
}

func TestSnapshotEqualityAndSubset(t *testing.T) {
	r := fromTuples(2, tuples([]int{0, 1}, []int{1, 2}))
	s := r.Snapshot()
	r.Add(Tuple{5, 5})
	if s.Equal(r) || r.Equal(s) {
		t.Fatalf("view should differ from grown parent")
	}
	if !s.SubsetOf(r) {
		t.Fatalf("view should be a subset of grown parent")
	}
	if r.SubsetOf(s) {
		t.Fatalf("grown parent is not a subset of the view")
	}
	c := s.Clone()
	if !c.Equal(s) || c.Len() != 2 {
		t.Fatalf("clone of view differs from view")
	}
	c.Add(Tuple{9, 9})
	if s.Has(Tuple{9, 9}) {
		t.Fatalf("clone of view shares storage with view")
	}
}

// TestSealedSnapshotConcurrentReads is the daemon scenario: readers
// iterate and probe a sealed snapshot while the live relation keeps
// being mutated (including removals).  Run under -race.
func TestSealedSnapshotConcurrentReads(t *testing.T) {
	r := New(2)
	for i := 0; i < 256; i++ {
		r.Add(Tuple{i, i + 1})
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		s := r.Snapshot()
		r.Seal()
		want := s.Len()
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 0
				s.Each(func(tu Tuple) bool {
					if !s.Has(tu) {
						t.Errorf("snapshot lost %v mid-read", tu)
						return false
					}
					n++
					return true
				})
				if n != want {
					t.Errorf("snapshot length changed mid-read: %d != %d", n, want)
				}
				s.Lookup(0, round)
				s.LookupCols([]int{0, 1}, []int{round, round + 1})
			}()
		}
		// Mutate the live relation while the readers run.
		for i := 0; i < 32; i++ {
			r.Remove(Tuple{i * 7 % 256, i*7%256 + 1})
			r.Add(Tuple{1000 + round*100 + i, i})
		}
		wg.Wait()
	}
}

func TestMultiset(t *testing.T) {
	m := NewMultiset(2)
	m.Bump(Tuple{1, 2}, 3)
	m.Bump(Tuple{1, 2}, -1)
	m.Bump(Tuple{3, 4}, 1)
	if got := m.Count(Tuple{1, 2}); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := m.Count(Tuple{9, 9}); got != 0 {
		t.Fatalf("absent count = %d, want 0", got)
	}
	o := NewMultiset(2)
	o.Bump(Tuple{3, 4}, 5)
	o.Bump(Tuple{7, 8}, 1)
	m.MergeFrom(o)
	if m.Count(Tuple{3, 4}) != 6 || m.Count(Tuple{7, 8}) != 1 || m.rel.Len() != 3 {
		t.Fatalf("merge wrong: %d %d %d", m.Count(Tuple{3, 4}), m.Count(Tuple{7, 8}), m.rel.Len())
	}
}
