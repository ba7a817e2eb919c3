package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// Chunked-arena storage tests: a model-checked random walk over every
// mutation and every kind of view, the structural-sharing contract of
// Seal, a -race run of sealed readers against a mutating owner, and the
// allocation budget of a stored tuple.

// nthTuple is a fixed enumeration of distinct tuples of the given
// arity: the first two columns determine j, the rest repeat, and every
// 97th tuple carries an id too wide for the packed key, so packed and
// spilled tuples share chunks.
func nthTuple(arity, j int) Tuple {
	t := make(Tuple, arity)
	for c := range t {
		switch c {
		case 0:
			if t[c] = j % 50; arity == 1 {
				t[c] = j
			}
		case 1:
			t[c] = j / 50
		default:
			t[c] = (j + c) % 3
		}
	}
	if arity > 0 && j%97 == 96 {
		t[arity-1] += 1 << 40
	}
	return t
}

// held is a relation — the live one or a view — beside the plain-map
// model of what it must contain.
type held struct {
	rel   *Relation
	model map[string]struct{}
}

// check compares the relation with its model: length, contents in both
// directions, the offset of every tuple, and one single-column and one
// composite index probe against a scan.
func (h held) check(rng *rand.Rand) error {
	r := h.rel
	if r.Len() != len(h.model) {
		return fmt.Errorf("Len = %d, model holds %d", r.Len(), len(h.model))
	}
	seen := 0
	var err error
	r.Each(func(t Tuple) bool {
		if _, ok := h.model[t.Key()]; !ok {
			err = fmt.Errorf("holds %v, which the model does not", t)
		} else if off := r.OffsetOf(t); off < 0 || !slices.Equal(r.At(off), t) {
			err = fmt.Errorf("OffsetOf(%v) = %d, which does not resolve to it", t, off)
		}
		seen++
		return err == nil
	})
	if err != nil {
		return err
	}
	if seen != len(h.model) {
		return fmt.Errorf("Each yields %d tuples, model holds %d", seen, len(h.model))
	}
	if r.Arity() == 0 || r.Len() == 0 {
		return nil
	}
	probe := r.At(int32(rng.Intn(r.Len())))
	col := rng.Intn(r.Arity())
	if got, want := r.Lookup(col, probe[col]), bruteOffsets(r, []int{col}, []int{probe[col]}); !sameOffsets(got, want) {
		return fmt.Errorf("Lookup(%d,%d) = %v, scan finds %v", col, probe[col], got, want)
	}
	if r.Arity() >= 2 {
		cols := []int{0, r.Arity() - 1}
		vals := []int{probe[cols[0]], probe[cols[1]]}
		if got, want := r.LookupCols(cols, vals), bruteOffsets(r, cols, vals); !sameOffsets(got, want) {
			return fmt.Errorf("LookupCols(%v,%v) = %v, scan finds %v", cols, vals, got, want)
		}
	}
	return nil
}

// storageWalk is the random walk of TestPropChunkedStorage for one
// arity and seed.
type storageWalk struct {
	t       *testing.T
	rng     *rand.Rand
	arity   int
	live    held
	present []int // the j of every tuple the live relation holds
	next    int   // the smallest j never added
	views   []held
}

func (w *storageWalk) add(j int) {
	t := nthTuple(w.arity, j)
	_, had := w.live.model[t.Key()]
	want := !had
	if got := w.live.rel.Add(t); got != want {
		w.t.Fatalf("Add(%v) = %v, want %v", t, got, want)
	}
	if want {
		w.live.model[t.Key()] = struct{}{}
		w.present = append(w.present, j)
	}
	w.next = max(w.next, j+1)
}

// remove deletes the i-th present tuple, half the time through a view of
// the relation's own storage.
func (w *storageWalk) remove(i int) {
	t := nthTuple(w.arity, w.present[i])
	arg := t
	if w.rng.Intn(2) == 0 {
		arg = w.live.rel.At(w.live.rel.OffsetOf(t))
	}
	if !w.live.rel.Remove(arg) {
		w.t.Fatalf("Remove(%v) of a present tuple failed", t)
	}
	delete(w.live.model, t.Key())
	w.present[i] = w.present[len(w.present)-1]
	w.present = w.present[:len(w.present)-1]
}

// resize brings the live relation to exactly n tuples.
func (w *storageWalk) resize(n int) {
	for len(w.present) > n {
		w.remove(w.rng.Intn(len(w.present)))
	}
	for len(w.present) < n {
		w.add(w.next)
	}
}

func (w *storageWalk) hold(v *Relation, model map[string]struct{}) {
	w.views = append(w.views, held{v, model})
	if len(w.views) > 3 {
		w.views = w.views[1:]
	}
}

// step performs one random operation on the live relation.
func (w *storageWalk) step() string {
	r := w.live.rel
	switch op := w.rng.Intn(11); op {
	case 0, 1:
		w.add(w.next)
		return "Add(new)"
	case 2:
		if len(w.present) > 0 {
			w.add(w.present[w.rng.Intn(len(w.present))])
		}
		return "Add(present)"
	case 3, 4:
		if len(w.present) > 0 {
			w.remove(w.rng.Intn(len(w.present)))
		}
		if w.arity > 0 && r.Remove(nthTuple(w.arity, w.next)) {
			w.t.Fatal("Remove of an absent tuple succeeded")
		}
		return "Remove"
	case 5:
		// RemoveAll of a few present tuples and one absent one.
		o, want := New(w.arity), 0
		if w.arity > 0 {
			o.Add(nthTuple(w.arity, w.next))
		}
		for n := w.rng.Intn(4); n > 0 && len(w.present) > 0; n-- {
			i := w.rng.Intn(len(w.present))
			if t := nthTuple(w.arity, w.present[i]); o.Add(t) {
				delete(w.live.model, t.Key())
				w.present[i] = w.present[len(w.present)-1]
				w.present = w.present[:len(w.present)-1]
				want++
			}
		}
		if got := r.RemoveAll(o); got != want {
			w.t.Fatalf("RemoveAll removed %d, want %d", got, want)
		}
		return "RemoveAll"
	case 6:
		w.hold(r.Snapshot(), maps.Clone(w.live.model))
		return "Snapshot"
	case 7:
		n := w.rng.Intn(r.Len() + 1)
		model := make(map[string]struct{}, n)
		for off := 0; off < n; off++ {
			model[r.At(int32(off)).Key()] = struct{}{}
		}
		w.hold(r.prefix(n), model)
		return "Prefix"
	case 8:
		r.Seal()
		return "Seal"
	case 9:
		// The clone takes over; the views of the relation it replaces live on.
		w.live.rel = r.Clone()
		if len(w.views) > 0 {
			v := w.views[w.rng.Intn(len(w.views))]
			if err := (held{v.rel.Clone(), v.model}).check(w.rng); err != nil {
				w.t.Fatalf("clone of a view: %v", err)
			}
		}
		return "Clone"
	default:
		o, before := New(w.arity), len(w.present)
		for n := w.rng.Intn(4); n >= 0; n-- {
			j := w.next + w.rng.Intn(3)
			if len(w.present) > 0 && w.rng.Intn(2) == 0 {
				j = w.present[w.rng.Intn(len(w.present))]
			}
			if t := nthTuple(w.arity, j); o.Add(t) {
				if _, had := w.live.model[t.Key()]; !had {
					w.live.model[t.Key()] = struct{}{}
					w.present = append(w.present, j)
					w.next = max(w.next, j+1)
				}
			}
		}
		if got := r.UnionWith(o); got != len(w.present)-before {
			w.t.Fatalf("UnionWith added %d, want %d", got, len(w.present)-before)
		}
		return "UnionWith"
	}
}

// TestPropChunkedStorage drives every mutation and every kind of view
// against a map model, with the relation's size forced to each side of
// the chunk boundaries, and checks the live relation and every
// outstanding view after each step.
func TestPropChunkedStorage(t *testing.T) {
	for _, arity := range []int{0, 1, 2, 4, 9} {
		for seed := int64(1); seed <= 2; seed++ {
			w := &storageWalk{t: t, rng: rand.New(rand.NewSource(seed*100 + int64(arity))), arity: arity}
			w.live = held{New(arity), map[string]struct{}{}}
			sizes := []int{0, 1}
			if arity > 0 {
				sizes = nil
				for _, c := range []int{1, 2} {
					sizes = append(sizes, c*chunkLen-1, c*chunkLen, c*chunkLen+1)
				}
				w.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			}
			for _, size := range sizes {
				if arity > 0 {
					w.resize(size)
				}
				for step, op := 0, fmt.Sprintf("resize(%d)", size); step < 16; step++ {
					for i, h := range append([]held{w.live}, w.views...) {
						if err := h.check(w.rng); err != nil {
							t.Fatalf("arity %d seed %d, %d tuples, after %s: relation %d (0 = live): %v",
								arity, seed, w.live.rel.Len(), op, i, err)
						}
					}
					op = w.step()
				}
			}
		}
	}
}

// sameChunk reports whether two non-empty chunks are the same memory.
func sameChunk(a, b []int) bool { return &a[0] == &b[0] }

// TestSealSharesUntouchedChunks pins what a publish costs the arena:
// after Seal, an append copies the tail chunk and a Remove the chunk of
// the vacated slot; every other chunk stays the one the view reads.
func TestSealSharesUntouchedChunks(t *testing.T) {
	r := New(2)
	for i := 0; i < 3*chunkLen+5; i++ {
		r.Add(Tuple{i, i % 9})
	}
	differing := func(v *Relation) (out []int) {
		for c := range v.chunks {
			if !sameChunk(v.chunks[c], r.chunks[c]) {
				out = append(out, c)
			}
		}
		return out
	}
	v := r.Snapshot()
	r.Seal()
	r.Add(Tuple{-1, 0})
	if got := differing(v); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after Seal + Add the relation owns chunks %v, want [3]", got)
	}
	v = r.Snapshot()
	r.Seal()
	r.Remove(Tuple{chunkLen + 7, (chunkLen + 7) % 9})
	if got := differing(v); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after Seal + Remove the relation owns chunks %v, want [1]", got)
	}
	if !v.Has(Tuple{chunkLen + 7, (chunkLen + 7) % 9}) || !slices.Equal(v.At(chunkLen+7), Tuple{chunkLen + 7, (chunkLen + 7) % 9}) {
		t.Fatal("view lost the removed tuple")
	}
}

// TestSealedViewsUnderChunkWrites is the -race check of the arena: the
// owner appends and removes across a chunk boundary, sealing a snapshot
// every round, while readers iterate and probe the snapshots of earlier
// rounds.
func TestSealedViewsUnderChunkWrites(t *testing.T) {
	published := make(chan held)
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for v := range published {
				if err := v.check(rng); err != nil {
					t.Errorf("reader %d: %v", g, err)
				}
			}
		}(g)
	}
	w := &storageWalk{t: t, rng: rand.New(rand.NewSource(5)), arity: 2, live: held{New(2), map[string]struct{}{}}}
	w.resize(chunkLen - 8)
	for round := 0; round < 40 && !t.Failed(); round++ {
		v := held{w.live.rel.Snapshot(), maps.Clone(w.live.model)}
		w.live.rel.Seal()
		for g := 0; g < 3; g++ {
			published <- v
		}
		// Up to eight past the boundary and back below it.
		for i := 0; i < 16; i++ {
			w.add(w.next)
		}
		for i := 0; i < 16; i++ {
			w.remove(w.rng.Intn(len(w.present)))
		}
	}
	close(published)
	readers.Wait()
}

// TestBytesPerStoredTuple pins the constant in front of the paper's
// |A|^k bound: a stored tuple costs its ids and its key slot, and is
// allocated with its chunk, not on its own.
func TestBytesPerStoredTuple(t *testing.T) {
	const n = 100_000
	for _, arity := range []int{2, 4} {
		tuples := make([]Tuple, n)
		for j := range tuples {
			tuples[j] = Tuple{j % 300, j / 300, 1, 2}[:arity]
		}
		var r *Relation
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r = New(arity)
		for _, tu := range tuples {
			r.Add(tu)
		}
		runtime.ReadMemStats(&after)
		if r.Len() != n {
			t.Fatalf("arity %d: %d tuples stored, want %d", arity, r.Len(), n)
		}
		// Chunks, the doublings of the first chunk, of the spine and of the
		// key table's arrays in either layout: n/chunkLen + O(log n).
		mallocs, maxMallocs := after.Mallocs-before.Mallocs, uint64(n/chunkLen+100)
		tableBytes := len(r.table.ctrl) + 8*len(r.table.keys) + 4*len(r.table.vals) + 4*len(r.table.dense)
		bytes, maxBytes := after.TotalAlloc-before.TotalAlloc, uint64(2*(8*arity*n+tableBytes))
		t.Logf("arity %d: %d tuples in %d mallocs, %d bytes (%.1f per tuple; ids %d, final key table %d, %s)",
			arity, n, mallocs, bytes, float64(bytes)/n, 8*arity*n, tableBytes, layout(r.table))
		if mallocs > maxMallocs {
			t.Errorf("arity %d: %d mallocs for %d tuples, want at most %d", arity, mallocs, n, maxMallocs)
		}
		if bytes > maxBytes {
			t.Errorf("arity %d: %d bytes for %d tuples, want at most %d", arity, bytes, n, maxBytes)
		}
		// Sorted inserts left the dense box wider than the keys' 300 × 334;
		// a clone takes their tight box.
		if c := r.Clone().table; layout(c) != "dense" || 4*len(c.dense) != 4*300*334 {
			t.Errorf("arity %d: the clone of a %d-byte dense table is %s with %d bytes, want dense with %d",
				arity, tableBytes, layout(c), 4*len(c.dense), 4*300*334)
		}
	}
}
