package relation

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// shuffled returns a relation holding tuples in a seeded random
// insertion order, as a fixpoint's rounds leave them, so key order is
// not arena order.
func shuffled(arity int, tuples []Tuple, seed int64) *Relation {
	rand.New(rand.NewSource(seed)).Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	r := New(arity)
	for _, tu := range tuples {
		r.Add(tu)
	}
	return r
}

// grid returns every pair over w×h ids.
func grid(w, h int) []Tuple {
	out := make([]Tuple, 0, w*h)
	for i := 0; i < w; i++ {
		for j := 0; j < h; j++ {
			out = append(out, Tuple{i, j})
		}
	}
	return out
}

// scattered returns n distinct pairs of ids below limit.
func scattered(n, limit int, seed int64) []Tuple {
	rng, seen := rand.New(rand.NewSource(seed)), map[[2]int]bool{}
	out := make([]Tuple, 0, n)
	for len(out) < n {
		p := [2]int{rng.Intn(limit), rng.Intn(limit)}
		if !seen[p] {
			seen[p] = true
			out = append(out, Tuple{p[0], p[1]})
		}
	}
	return out
}

// sortedTuples is the oracle for Tuples: the arena's tuples, copied and
// sorted with Compare.
func sortedTuples(r *Relation) []Tuple {
	var out []Tuple
	r.Each(func(tu Tuple) bool {
		out = append(out, slices.Clone(tu))
		return true
	})
	slices.SortFunc(out, Tuple.Compare)
	return out
}

var tuplesSink []Tuple

// BenchmarkRelationTuples times one sorted read on each key-table
// layout: dense is a 480×480 closure (the TC result of eval-batch),
// whose table is walked; hash-50k a 50 000-pair relation over ids
// below 2²⁰ and hash-700 a 700-edge graph over 400 vertices (the size
// of serve-read's E), both open addressing, whose keys are sorted;
// since the last quarter of the closure as a range view, walked and
// filtered to its range.
func BenchmarkRelationTuples(b *testing.B) {
	dense := shuffled(2, grid(480, 480), 1)
	cases := []struct {
		name   string
		r      *Relation
		layout string
	}{
		{"dense", dense, "dense"},
		{"hash-50k", shuffled(2, scattered(50_000, 1<<20, 2), 2), "hash"},
		{"hash-700", shuffled(2, scattered(700, 400, 3), 3), "hash"},
		{"since", dense.Since(dense.Len() * 3 / 4), "dense"},
	}
	for _, c := range cases {
		if got := layout(c.r.table); got != c.layout {
			b.Fatalf("%s: key table is %s, want %s", c.name, got, c.layout)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tuplesSink = c.r.Tuples()
			}
			if len(tuplesSink) != c.r.Len() {
				b.Fatalf("Tuples has %d, want %d", len(tuplesSink), c.r.Len())
			}
		})
	}
}

// TestTuplesOfSealedSnapshotUnderWrites is the daemon's read of a
// published relation: readers call Tuples on a sealed snapshot of a
// dense relation, which walks the snapshot's key table, while the
// writer widens the live relation's dense box, flips its table to open
// addressing, or removes from it.  The first write detaches the live
// relation, so each reader must keep reading the snapshot's sorted
// contents.  Run under -race.
func TestTuplesOfSealedSnapshotUnderWrites(t *testing.T) {
	writes := []struct {
		name   string
		layout string // of the live key table afterwards
		write  func(r *Relation, i int)
	}{
		{"widen", "dense", func(r *Relation, i int) { r.Add(Tuple{40 + i/40, i % 40}) }},
		{"flip", "hash", func(r *Relation, i int) { r.Add(Tuple{1<<30 + i, i}) }},
		{"remove", "dense", func(r *Relation, i int) { r.Remove(Tuple{i % 40, i / 40}) }},
	}
	for _, w := range writes {
		r := shuffled(2, grid(40, 40), 4)
		s := r.Snapshot()
		r.Seal()
		if got := layout(s.table); got != "dense" {
			t.Fatalf("%s: snapshot key table is %s, want dense", w.name, got)
		}
		want := sortedTuples(s)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					if got := s.Tuples(); !slices.EqualFunc(got, want, slices.Equal) {
						t.Errorf("%s: a reader's Tuples has %d tuples, differing from the snapshot's %d", w.name, len(got), len(want))
						return
					}
				}
			}()
		}
		for i := 0; i < 400; i++ {
			w.write(r, i)
		}
		wg.Wait()
		if got := layout(r.table); got != w.layout {
			t.Errorf("%s: live key table is %s, want %s", w.name, got, w.layout)
		}
	}
}

// TestTuplesWalksDenseTable pins the cost of a sorted read over a
// dense key table, on the relation and on a range view of it: one
// allocation, the slice of views, which alias the arena.
func TestTuplesWalksDenseTable(t *testing.T) {
	r := shuffled(2, grid(64, 64), 5)
	for _, v := range []*Relation{r, r.Since(r.Len() / 2)} {
		if got := layout(v.table); got != "dense" {
			t.Fatalf("key table is %s, want dense", got)
		}
		if a := testing.AllocsPerRun(10, func() { tuplesSink = v.Tuples() }); a != 1 {
			t.Errorf("Tuples of %d tuples made %.0f allocations, want 1", v.Len(), a)
		}
		got := v.Tuples()
		if !slices.EqualFunc(got, sortedTuples(v), slices.Equal) {
			t.Fatalf("Tuples of %d tuples is not the sorted contents", v.Len())
		}
		if off := v.OffsetOf(got[0]); off < 0 || &got[0][0] != &v.At(off)[0] {
			t.Errorf("Tuples' first element is not a view of the arena")
		}
	}
}
