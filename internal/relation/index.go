package relation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Indexes.
//
// A relation answers equality probes through lazily built hash
// indexes, one per probed subset of columns, each mapping the
// projection onto those columns to the ascending arena offsets of the
// tuples carrying it.  A probe binding several columns costs one hash
// lookup instead of a single-column lookup plus per-tuple filtering;
// the engine's join planner asks for the index on exactly the bound
// argument positions of a literal.  Lookup and Distinct read the
// index on their one column.  A probe binding every column needs no
// index: that is OffsetOf.
//
// Projections are keyed exactly like relation storage: the packed
// uint64 encoding when the projected tuple packs (see key.go), the
// byte-string spill encoding otherwise.  A given projection always
// encodes the same way, so build and probe can never disagree on which
// of the two maps holds an entry.
//
// Lifetime.  An index covers the first n arena entries and lives as
// long as its relation does, short of a large RemoveAll.
//
//   - Appends leave it exact for its prefix (offsets are assigned
//     monotonically); the next probe extends it by the arena suffix.
//   - Remove patches it for the swap-remove it performs, so a relation
//     that loses a few tuples keeps its indexes instead of rescanning
//     itself on the next probe.  RemoveAll drops it instead when the
//     batch is large enough that rebuilding over the survivors is the
//     cheaper of the two (see patchCost).
//   - Snapshot hands the built indexes to the view when they
//     cover no more than the view's length; the view extends them by
//     whatever suffix it still lacks.  detach keeps them: it preserves
//     offsets.
//   - A range view (Since) owns none: it probes its relation's,
//     extending them when short, narrowed to its range.
//
// Sharing.  Published sets are immutable to everyone but the live
// relation that built them, and are swapped in atomically, so any
// number of readers may probe while one goroutine builds (under mu).
// Extension by the live relation is in place while no view has taken
// the set: the relation grew under exclusive access, so every reader
// that probes it now finds the set short and waits on mu
// (TestIndexGrowsInPlaceUnderProbes races them).  A probe through a
// range view extends its relation's sets the same way: range views are
// read on the goroutine that updates their relation (see Since), so no
// shorter range reads a set while it grows.  Once a view holds the
// set (idxShared), extension copies the key maps but not the buckets:
// the live relation appends into the spare capacity of the buckets it
// extends, which the holders of the older set never look at.  A view is
// not the owner of what it inherited, so it clips every bucket's
// capacity first and its appends reallocate.  Remove edits buckets in
// place, which views holding the same buckets must not see: the first
// Remove after a view took the indexes copies them (idxShared).

// patchCost is what patching one Remove into an index costs, in units
// of indexing one tuple from scratch: per index up to three bucket
// edits (the removed tuple's offset, the moved tuple's old and new
// one), each a map read and write plus a search and shift, against one
// map write and append.  Measured at 250 ns against 90 ns on arity 2.
const patchCost = 4

// compIndex is one index: projection key → ascending arena offsets,
// over the first n arena entries.
type compIndex struct {
	n      int
	cols   []int
	packed map[uint64][]int32
	spill  map[string][]int32
}

// compIndexSet maps a column bitmask to its index.  Individual indexes
// may cover different arena prefixes (they are built lazily at
// different times); each carries its own coverage length.  Adding an
// index replaces the map copy-on-write under mu.
type compIndexSet struct {
	m map[uint64]*compIndex
}

// shareIndexes hands r's built indexes to its view v.
func (r *Relation) shareIndexes(v *Relation) {
	cs := r.idxs.Load()
	if cs == nil {
		return
	}
	for _, ci := range cs.m {
		if ci.n > v.n {
			return
		}
	}
	v.idxs.Store(cs)
	if !r.frozen {
		r.idxShared = true
	}
}

// growBuckets copies a published bucket map so it can be extended.
// clip makes every later append reallocate the bucket it lands in, for
// callers that do not own the buckets.
func growBuckets[K comparable](m map[K][]int32, clip bool) map[K][]int32 {
	out := make(map[K][]int32, len(m))
	for k, b := range m {
		if clip {
			b = slices.Clip(b)
		}
		out[k] = b
	}
	return out
}

// cloneBuckets deep-copies a bucket map, carving the buckets out of
// flat, which the caller sized for all of them.
func cloneBuckets[K comparable](m map[K][]int32, flat []int32) (map[K][]int32, []int32) {
	if m == nil {
		return nil, flat
	}
	out := make(map[K][]int32, len(m))
	for k, b := range m {
		at := len(flat)
		flat = append(flat, b...)
		out[k] = flat[at:len(flat):len(flat)]
	}
	return out, flat
}

func (cs *compIndexSet) clone() *compIndexSet {
	c := &compIndexSet{m: make(map[uint64]*compIndex, len(cs.m))}
	for mask, ci := range cs.m {
		d := &compIndex{n: ci.n, cols: ci.cols}
		flat := make([]int32, 0, ci.n)
		d.packed, flat = cloneBuckets(ci.packed, flat)
		d.spill, _ = cloneBuckets(ci.spill, flat)
		c.m[mask] = d
	}
	return c
}

// bucketDrop removes off from the bucket under k.  An emptied bucket
// leaves the map: Distinct counts keys.
func bucketDrop[K comparable](m map[K][]int32, k K, off int32) {
	b := m[k]
	if len(b) == 1 {
		delete(m, k)
		return
	}
	i, _ := slices.BinarySearch(b, off)
	m[k] = slices.Delete(b, i, i+1)
}

// bucketInsert adds off to the bucket under k, keeping it ascending
// (OffsetsInRange depends on that).
func bucketInsert[K comparable](m map[K][]int32, k K, off int32) {
	b := m[k]
	i, _ := slices.BinarySearch(b, off)
	m[k] = slices.Insert(b, i, off)
}

// project writes t's projection onto the index's columns into buf.
func (ci *compIndex) project(t Tuple, buf Tuple) Tuple {
	for _, c := range ci.cols {
		buf = append(buf, t[c])
	}
	return buf
}

func (ci *compIndex) drop(t Tuple, off int32) {
	var buf [8]int
	proj := ci.project(t, buf[:0])
	if k, ok := packKey(proj); ok {
		bucketDrop(ci.packed, k, off)
	} else {
		bucketDrop(ci.spill, spillKey(proj), off)
	}
}

func (ci *compIndex) insert(t Tuple, off int32) {
	var buf [8]int
	proj := ci.project(t, buf[:0])
	if k, ok := packKey(proj); ok {
		bucketInsert(ci.packed, k, off)
		return
	}
	if ci.spill == nil {
		ci.spill = make(map[string][]int32)
	}
	bucketInsert(ci.spill, spillKey(proj), off)
}

// swapRemoved patches ci for a swap-remove — removed leaves offset off
// and, unless off is the last offset, moved goes from last to off —
// and shortens its coverage to what the arena keeps.
func (ci *compIndex) swapRemoved(off, last int32, removed, moved Tuple) {
	if int(off) < ci.n {
		ci.drop(removed, off)
	}
	if off != last {
		if int(last) < ci.n {
			ci.drop(moved, last)
		}
		if int(off) < ci.n {
			ci.insert(moved, off)
		}
	}
	ci.n = min(ci.n, int(last))
}

// unindex keeps the built indexes exact across the swap-remove Remove
// is about to perform on the arena.
func (r *Relation) unindex(off, last int32, removed, moved Tuple) {
	cs := r.idxs.Load()
	if cs == nil {
		return
	}
	if r.idxShared {
		// A view holds these buckets; leave them to it.
		cs = cs.clone()
		r.idxs.Store(cs)
		r.idxShared = false
	}
	for _, ci := range cs.m {
		ci.swapRemoved(off, last, removed, moved)
	}
}

// dropIndexes forgets the built indexes; the next probe rebuilds.
func (r *Relation) dropIndexes() {
	r.idxs.Store(nil)
	r.idxShared = false
}

// ownsIndexes reports whether the published index set is r's alone to
// extend in place; see Sharing above.
func (r *Relation) ownsIndexes() bool { return !r.frozen && !r.idxShared }

// colsMask validates cols (strictly ascending, in range, below 64) and
// returns the bitmask identifying the index.  The panics format no
// slice, so cols does not escape and probes stay allocation-free.
func (r *Relation) colsMask(cols []int) uint64 {
	if len(cols) == 0 {
		panic("relation: composite index over zero columns")
	}
	var m uint64
	prev := -1
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: index column %d out of range for arity %d", c, r.arity))
		}
		if c <= prev {
			panic(fmt.Sprintf("relation: index column %d follows column %d; columns must be strictly ascending", c, prev))
		}
		if c >= 64 {
			panic(fmt.Sprintf("relation: composite index column %d exceeds the 64-column limit", c))
		}
		prev = c
		m |= 1 << uint(c)
	}
	return m
}

// compFor returns the index on cols covering r (a range view's is its
// relation's), building it on first use and extending it when short.
func (r *Relation) compFor(cols []int) *compIndex {
	mask := r.colsMask(cols)
	o, n := cmp.Or(r.of, r), r.n
	if cs := o.idxs.Load(); cs != nil {
		if ci := cs.m[mask]; ci != nil && ci.n >= n {
			return ci
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	next := make(map[uint64]*compIndex, 1)
	if cs := o.idxs.Load(); cs != nil {
		if ci := cs.m[mask]; ci != nil && ci.n >= n {
			return ci
		}
		for k, v := range cs.m {
			next[k] = v
		}
	}
	ci := o.buildComp(cols, next[mask])
	next[mask] = ci
	o.idxs.Store(&compIndexSet{m: next})
	return ci
}

// buildComp groups arena offsets by projection key.  With prev nil it
// scans the whole arena; otherwise it takes prev's key maps — as they
// are when r owns them, copied otherwise — and scans only the suffix
// prev lacks.
func (r *Relation) buildComp(cols []int, prev *compIndex) *compIndex {
	ci := &compIndex{n: r.n, cols: slices.Clone(cols)}
	lo := 0
	switch {
	case prev == nil:
		ci.packed = make(map[uint64][]int32)
	case r.ownsIndexes():
		lo, ci.packed, ci.spill = prev.n, prev.packed, prev.spill
	default:
		lo = prev.n
		ci.packed = growBuckets(prev.packed, r.frozen)
		if prev.spill != nil {
			ci.spill = growBuckets(prev.spill, r.frozen)
		}
	}
	proj := make(Tuple, 0, len(cols))
	for off := lo; off < r.n; off++ {
		proj = ci.project(r.At(int32(off)), proj[:0])
		if k, ok := packKey(proj); ok {
			ci.packed[k] = append(ci.packed[k], int32(off))
			continue
		}
		if ci.spill == nil {
			ci.spill = make(map[string][]int32)
		}
		sk := spillKey(proj)
		ci.spill[sk] = append(ci.spill[sk], int32(off))
	}
	return ci
}

// LookupCols returns the arena offsets of the tuples whose projection
// on cols equals vals (element i of vals constrains column cols[i]),
// ascending; resolve them with At.  cols must be strictly ascending.
// Callers must not mutate the returned slice.  Safe for concurrent use
// by readers.  The probe itself is allocation-free on the packed path;
// projections that spill (ids beyond the packed width) pay one key
// allocation per probe.
func (r *Relation) LookupCols(cols []int, vals []int) []int32 {
	ci := r.compFor(cols)
	var offs []int32
	if k, ok := packKey(Tuple(vals)); ok {
		offs = ci.packed[k]
	} else if ci.spill != nil {
		offs = ci.spill[spillKey(Tuple(vals))]
	}
	return OffsetsInRange(offs, int32(r.lo), int32(r.n))
}

// Lookup returns the arena offsets of the tuples whose col-th element
// equals val, ascending: LookupCols on the one column col.
func (r *Relation) Lookup(col, val int) []int32 {
	return r.LookupCols([]int{col}, []int{val})
}

// OffsetsInRange narrows an index offset list (ascending, as an index
// bucket is) to the offsets in [lo, hi): how a view probes its
// relation's index, which may cover offsets outside the view.  The
// result aliases offs; callers must not mutate it.
func OffsetsInRange(offs []int32, lo, hi int32) []int32 {
	if hi <= lo {
		return nil
	}
	if len(offs) == 0 || offs[0] >= lo && offs[len(offs)-1] < hi {
		return offs
	}
	i := sort.Search(len(offs), func(i int) bool { return offs[i] >= lo })
	j := sort.Search(len(offs), func(j int) bool { return offs[j] >= hi })
	return offs[i:j]
}

// Distinct returns the number of distinct values appearing in column
// col — the statistic the join planner divides by when estimating the
// selectivity of an equality probe.  It counts the keys of the index
// on col, so it is O(1) while that index is up to date; a range view
// counts its relation's.
func (r *Relation) Distinct(col int) int {
	ci := r.compFor([]int{col})
	return len(ci.packed) + len(ci.spill)
}
