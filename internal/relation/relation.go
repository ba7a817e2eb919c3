package relation

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a finite set of tuples of a fixed arity.  Arity 0 is
// allowed: such a relation is either empty ("false") or contains the
// single empty tuple ("true"); the paper's toggle constructions never
// need it but the engine supports it uniformly.
//
// Storage is an arena of universe ids in insertion order — a spine of
// fixed-size, pointer-free chunks of chunkLen tuples, arity ids each —
// plus a table of packed integer keys (key.go, table.go) mapping each
// tuple to its arena offset: a hash table, or an array once the keys
// fill a box of id extents.  A stored tuple costs its ids and its key
// slot: an insert writes into the tail chunk, allocates only when a
// chunk fills, never copies what is already stored, and leaves the
// garbage collector no per-tuple pointer to follow.  The first chunk
// grows by doubling, so a small relation pays for what it holds.
// Tuples read back (At, Each, Tuples) are views cut out of a chunk;
// see Tuple for how long they stay valid.  Hash indexes on one column
// or several map a projection to arena offsets; they are built lazily
// on first lookup, extended after appends, patched by Remove and
// inherited by snapshots (see index.go).
//
// Snapshots (see Snapshot and Seal) are O(1) immutable views that share
// the chunks and key maps with the live relation and carry their own
// length: because offsets are assigned monotonically while the relation
// only grows, a view of length n is exactly "the first n arena
// entries", and shared key entries at offsets ≥ n are invisible to it.
// A range view (Since) is the arena range [lo, n) in the same way: a
// fixpoint round's delta is the range its pass appended.
// The live relation detaches before any mutation that would rewrite
// what a view can see — every Remove, and after Seal every mutation at
// all: it copies the spine and the key maps, and from then on each
// chunk a view may still read when it first writes it (the tail chunk
// on append, the chunk of the vacated slot on Remove).  All other
// chunks stay shared, so a publish costs the arena what changed; the
// key table is still cloned whole.
//
// Concurrency: any number of goroutines may read a relation (Has, Each,
// Lookup, At, ...) concurrently — lazy index construction is internally
// synchronized — but mutation requires exclusive access with respect to
// readers of the relation and of any snapshot still sharing its
// storage.  Sealing removes the latter requirement: after Seal, the
// first mutation detaches, so sealed snapshots may be read by other
// goroutines while the live relation is updated.
type Relation struct {
	arity  int
	lo, n  int              // the visible arena range [lo, n); lo > 0 only in a range view
	chunks [][]int          // spine: chunk c holds offsets [c·chunkLen, (c+1)·chunkLen)
	owned  []bool           // nil: all chunks are r's alone; else !owned[c]: copy chunk c before writing it
	table  *Table           // packed key -> arena offset (lazily allocated)
	spill  map[string]int32 // fallback key -> arena offset (wide/huge tuples)

	share  int8      // storage sharing mode (shareNone/shareWeak/shareSealed)
	frozen bool      // immutable snapshot view; mutation panics
	of     *Relation // a range view's relation, whose indexes and levels it reads
	levels []uint16  // per arena offset once TrackLevels is called, else nil (see Level)

	// Lazily built indexes (see index.go).  idxShared is set once a view
	// has taken the current set: its buckets are then copied before
	// Remove edits them.
	mu        sync.Mutex                   // serializes index builds
	idxs      atomic.Pointer[compIndexSet] // indexes by column mask
	idxShared bool
}

// Chunk geometry.  Every chunk but the first is allocated whole; the
// first starts at headLen tuples and doubles up to chunkLen.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	headLen    = 4
)

// Storage sharing modes.  shareWeak is set by Snapshot: views share the
// storage, appends stay invisible to them, but a Remove must detach
// first.  shareSealed is set by Seal: views may be read concurrently
// from other goroutines, so any mutation must detach first.
const (
	shareNone int8 = iota
	shareWeak
	shareSealed
)

// New returns an empty relation of the given arity.  It panics on a
// negative arity.  Chunks and the key table are allocated on the first
// insert, so empty relations stay cheap.
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	return &Relation{arity: arity}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n - r.lo }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == r.lo }

// Span returns the arena offsets [lo, hi) of the tuples: [0, Len()) but
// for a range view (Since).
func (r *Relation) Span() (lo, hi int32) { return int32(r.lo), int32(r.n) }

// offsetOf returns the arena offset of t, or -1 if absent.  Offsets
// outside [lo, n) are not r's: tuples appended after a view was taken,
// or before a range view's start.
func (r *Relation) offsetOf(t Tuple) int32 {
	if k, ok := packKey(t); ok {
		return r.packedOff(k, mix64(k))
	}
	if off, ok := r.spill[spillKey(t)]; ok && uint(int(off)-r.lo) < uint(r.n-r.lo) {
		return off
	}
	return -1
}

// packedOff returns the visible arena offset of packed key k (whose
// hash h must equal mix64(k)), or -1.
func (r *Relation) packedOff(k, h uint64) int32 {
	if r.table != nil {
		if off, ok := r.table.get(k, h); ok && uint(int(off)-r.lo) < uint(r.n-r.lo) {
			return off
		}
	}
	return -1
}

// packedPut records packed key k -> off; h must equal mix64(k).
func (r *Relation) packedPut(k, h uint64, off int32) {
	if r.table == nil {
		r.table = newTable(r.arity, 0, nil)
	}
	r.table.put(k, h, off)
}

// Snapshot returns an O(1) immutable view of the relation's current
// contents, sharing storage with r.  Tuples added to r afterwards are
// invisible to the view; a later Remove on r detaches r first, so the
// view stays valid either way.  Mutating the view panics.
//
// The view may be read concurrently with other reads, but mutating r
// while another goroutine reads the view requires r to be sealed first
// (see Seal); within one goroutine (or any happens-before chain) no
// sealing is needed.
func (r *Relation) Snapshot() *Relation {
	if r.frozen {
		return r // already an immutable view
	}
	return r.prefix(r.n)
}

// prefix is Snapshot cut at the first n tuples in insertion order: key
// entries at offsets ≥ n are invisible to the view, exactly as later
// appends are to a snapshot.  It panics when n exceeds the current
// length.
func (r *Relation) prefix(n int) *Relation {
	if n < 0 || n > r.n {
		panic(fmt.Sprintf("relation: prefix %d of relation with %d tuples", n, r.n))
	}
	if !r.frozen && r.share == shareNone {
		r.share = shareWeak
	}
	k := (n + chunkMask) >> chunkShift
	v := &Relation{
		arity:  r.arity,
		n:      n,
		chunks: r.chunks[:k:k],
		table:  r.table,
		spill:  r.spill,
		frozen: true,
	}
	r.shareIndexes(v)
	return v
}

// Since returns an O(1) immutable view of r past its first lo tuples: a
// round's delta, when lo is the length before the round.  Like a tuple
// from At, it is valid until r is next removed from; appends leave it
// as it is, and it marks nothing shared, so a Remove pays no detach.
// It reads r's key table and indexes; a probe through a view of a live
// r extends r's indexes in place, so such a view is read on the
// goroutine that updates r.  It panics unless 0 ≤ lo ≤ Len().
func (r *Relation) Since(lo int) *Relation {
	if lo < 0 || lo > r.Len() {
		panic(fmt.Sprintf("relation: range from %d of relation with %d tuples", lo, r.Len()))
	}
	k := (r.n + chunkMask) >> chunkShift
	return &Relation{arity: r.arity, lo: r.lo + lo, n: r.n, chunks: r.chunks[:k:k],
		table: r.table, spill: r.spill, frozen: true, of: cmp.Or(r.of, r)}
}

// Seal marks the relation's storage as published: the next mutation —
// including appends — detaches, leaving what existing snapshots can see
// exclusively to them.  Call it after handing a Snapshot to readers on
// other goroutines.  Sealing an already-sealed or frozen relation is a
// no-op.
func (r *Relation) Seal() {
	if !r.frozen {
		r.share = shareSealed
	}
}

// beforeMutate enforces the mutation contract: frozen views reject
// mutation, and shared storage is detached first when the mutation
// would otherwise corrupt live snapshots (any mutation once sealed;
// removals under weak sharing).
func (r *Relation) beforeMutate(appendOnly bool) {
	if r.frozen {
		panic("relation: mutating an immutable snapshot")
	}
	if r.share == shareSealed || (r.share == shareWeak && !appendOnly) {
		r.detach()
	}
}

// detach copies the spine and the key maps and disowns every chunk, so
// existing snapshots keep what they see: writable copies a chunk the
// first time r writes it.  Offsets are preserved, so the indexes stay
// valid (and stay shared with those snapshots).  Live relations never
// hold keys past their own length, so a straight copy is exact.
func (r *Relation) detach() {
	r.chunks = slices.Clone(r.chunks)
	r.owned = make([]bool, len(r.chunks))
	r.table = r.table.clone()
	r.spill = maps.Clone(r.spill)
	r.share = shareNone
}

// writable returns chunk c ready for a write of ids below index need:
// allocated, long enough, and r's own.
func (r *Relation) writable(c, need int) []int {
	if c == len(r.chunks) {
		size := chunkLen
		if c == 0 {
			size = headLen
		}
		r.chunks = append(r.chunks, make([]int, size*r.arity))
		if r.owned != nil {
			r.owned = append(r.owned, true)
		}
	}
	ch := r.chunks[c]
	if short := need > len(ch); short || (r.owned != nil && !r.owned[c]) {
		size := len(ch)
		if short { // only the first chunk ever is: double it, up to a whole chunk
			size = min(max(2*size, need), chunkLen*r.arity)
		}
		ch = make([]int, size)
		copy(ch, r.chunks[c])
		r.chunks[c] = ch
		if r.owned != nil {
			r.owned[c] = true
		}
	}
	return ch
}

// push appends t to the arena, at NoLevel when r tracks levels; the
// caller has recorded its key.
func (r *Relation) push(t Tuple) {
	c, i := r.n>>chunkShift, (r.n&chunkMask)*r.arity
	copy(r.writable(c, i+r.arity)[i:], t)
	r.n++
	if r.levels != nil {
		r.levels = append(r.levels, NoLevel)
	}
}

// NoLevel is the level of a tuple no level is known for.  It exceeds
// every known level, so a level bound never admits it.
const NoLevel = math.MaxUint16

// TrackLevels starts keeping a level per tuple beside the arena of r,
// which must be empty: a 2-byte array that Remove's swap moves and
// Clone copies.  The levels are the caller's (semantics.Layer keeps a
// fixpoint stage bound in them); snapshots do not carry them.
func (r *Relation) TrackLevels() {
	if r.n > 0 {
		panic("relation: TrackLevels on a non-empty relation")
	}
	if r.levels == nil && !r.frozen {
		r.levels = []uint16{}
	}
}

// TracksLevels reports whether TrackLevels was called on r, or on the
// relation a range view of r is of.
func (r *Relation) TracksLevels() bool { return cmp.Or(r.of, r).levels != nil }

// Level returns the level of the tuple at arena offset off, NoLevel
// when r keeps none.  A range view reads its relation's levels.
func (r *Relation) Level(off int32) uint16 {
	if r.of != nil {
		r = r.of
	}
	if uint(off) < uint(len(r.levels)) {
		return r.levels[off]
	}
	return NoLevel
}

// SetLevel sets the level of the tuple at arena offset off; r must
// track levels.
func (r *Relation) SetLevel(off int32, lv uint16) { r.levels[off] = lv }

// AddLevel is Add for a tuple derived at level lv: a new tuple gets it,
// a present one whose level is higher is lowered to it.  r must track
// levels.
func (r *Relation) AddLevel(t Tuple, lv uint16) bool {
	off, added := r.add(t)
	r.levels[off] = min(r.levels[off], lv)
	return added
}

// Mutable returns r if it is mutable, or a deep copy if r is an
// immutable snapshot view.
func (r *Relation) Mutable() *Relation {
	if !r.frozen {
		return r
	}
	return r.Clone()
}

// Add inserts t, reporting whether it was new.  It panics if the arity
// of t does not match the relation's.  The ids are copied into the
// arena, so callers may reuse the backing slice; re-adding an existing
// tuple writes nothing.
func (r *Relation) Add(t Tuple) bool {
	_, added := r.add(t)
	return added
}

// add is Add, also returning t's arena offset.
func (r *Relation) add(t Tuple) (int32, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: adding tuple of arity %d to relation of arity %d", len(t), r.arity))
	}
	k, packs := packKey(t)
	h := mix64(k)
	if packs {
		if off := r.packedOff(k, h); off >= 0 {
			return off, false
		}
	} else if off := r.offsetOf(t); off >= 0 {
		return off, false
	}
	r.beforeMutate(true)
	r.setKey(t, k, h, packs, int32(r.n))
	r.push(t)
	return int32(r.n - 1), true
}

// Has reports whether t is present.
func (r *Relation) Has(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	return r.offsetOf(t) >= 0
}

// OffsetOf returns the arena offset of t (resolve it with At), or -1
// when t is absent — Has for callers that want the stored tuple, e.g.
// the engine's access path for a literal whose columns are all bound.
func (r *Relation) OffsetOf(t Tuple) int32 {
	if len(t) != r.arity {
		return -1
	}
	return r.offsetOf(t)
}

// setKey records that t (k, packs = packKey(t), h = mix64(k)) lies at
// arena offset off.
func (r *Relation) setKey(t Tuple, k, h uint64, packs bool, off int32) {
	if packs {
		r.packedPut(k, h, off)
		return
	}
	if r.spill == nil {
		r.spill = make(map[string]int32)
	}
	r.spill[spillKey(t)] = off
}

// AppendDisjoint appends every tuple of o without membership probes.
// The caller must guarantee that o is disjoint from r's current
// contents (e.g. o is a difference taken against r); violating that
// corrupts the relation.
func (r *Relation) AppendDisjoint(o *Relation) {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: appending arity %d into arity %d", o.arity, r.arity))
	}
	if o.Empty() {
		return
	}
	r.beforeMutate(true)
	o.Each(func(t Tuple) bool {
		k, packs := packKey(t)
		r.setKey(t, k, mix64(k), packs, int32(r.n))
		r.push(t)
		return true
	})
}

// Remove deletes t, reporting whether it was present.  The arena stays
// dense: the last tuple is copied into the vacated slot, and the built
// indexes are patched for the two offsets that changed.  If snapshots
// share the storage, it is detached first, so they keep seeing the
// pre-removal contents.  t may be a view of r itself: keys and indexes
// are settled before the slot it may alias is overwritten.
func (r *Relation) Remove(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	off := r.offsetOf(t)
	if off < 0 {
		return false
	}
	r.beforeMutate(false)
	last := int32(r.n - 1)
	moved := r.At(last)
	r.unindex(off, last, t, moved)
	r.deleteKey(t)
	if off != last {
		k, packs := packKey(moved)
		r.setKey(moved, k, mix64(k), packs, off)
		c, i := int(off)>>chunkShift, (int(off)&chunkMask)*r.arity
		copy(r.writable(c, 0)[i:], moved)
	}
	if r.levels != nil {
		r.levels[off] = r.levels[last]
		r.levels = r.levels[:last]
	}
	r.n--
	return true
}

// RemoveAll deletes every tuple of o from r, returning the number of
// tuples actually removed.  A batch large enough that patching the
// indexes tuple by tuple would cost more than rebuilding them over what
// remains drops them first.
func (r *Relation) RemoveAll(o *Relation) int {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: removing arity %d from arity %d", o.arity, r.arity))
	}
	if o.Len()*patchCost > r.Len()-o.Len() {
		r.dropIndexes()
	}
	removed := 0
	o.Each(func(t Tuple) bool {
		if r.Remove(t) {
			removed++
		}
		return true
	})
	return removed
}

// Clear removes every tuple, keeping the arena chunks and the key
// table's arrays for the tuples added next: a scratch relation reused
// across passes allocates only when it outgrows its largest use.  Like
// Remove it detaches from snapshots first and invalidates range views
// and tuples read before; a relation tracking levels goes on tracking.
func (r *Relation) Clear() {
	if r.n == 0 {
		return
	}
	r.beforeMutate(false)
	r.n = 0
	r.table.clear()
	clear(r.spill)
	r.dropIndexes()
	if r.levels != nil {
		r.levels = r.levels[:0]
	}
}

func (r *Relation) deleteKey(t Tuple) {
	if k, ok := packKey(t); ok {
		r.table.del(k, mix64(k))
		return
	}
	delete(r.spill, spillKey(t))
}

// denseWalkMax bounds the dense key table slots Tuples walks per tuple
// it returns: past it (a small view of a large table) sorting costs
// less.
const denseWalkMax = 16

// Tuples returns all tuples in key order (Compare's) as read-only
// views, valid as long as At's are: until r is next removed from, and
// forever for a snapshot.  A dense key table holds them in that order
// already, its slots running in mixed-radix order with the first
// column most significant, so the walk keeps the slots whose offsets
// lie in [lo, n) and allocates only the result.  Otherwise the tuples
// are sorted into one flat allocation: packed keys, fixed-width
// concatenations of non-negative ids, order exactly like Compare, so
// when every tuple packs the keys are sorted in the last n ints of it
// (the sign bit flipped, so signed order is unsigned order) and unpack
// in place in ascending order, as unpacking tuple i overwrites no key
// past key i.
func (r *Relation) Tuples() []Tuple {
	a, n := r.arity, r.Len()
	if t := r.table; t != nil && t.dense != nil && len(r.spill) == 0 && len(t.dense) <= denseWalkMax*n {
		out := make([]Tuple, 0, n)
		for _, v := range t.dense {
			if off := int(v) - 1; off >= r.lo && off < r.n {
				out = append(out, r.At(int32(off)))
			}
		}
		return out
	}
	flat, out := make([]int, n*a), make([]Tuple, n)
	for i := range out {
		out[i] = flat[i*a : i*a+a : i*a+a]
	}
	packs := a > 0 && math.MaxInt == math.MaxInt64 // a key fits in an int
	if packs {
		keys, i := flat[(a-1)*n:], 0
		r.Each(func(t Tuple) bool {
			var k uint64
			k, packs = packKey(t)
			keys[i] = int(k ^ 1<<63)
			i++
			return packs
		})
		if packs {
			slices.Sort(keys)
			for i := range out {
				unpackKey(uint64(keys[i])^1<<63, out[i])
			}
			return out
		}
	}
	i := 0
	r.Each(func(t Tuple) bool {
		copy(out[i], t)
		i++
		return true
	})
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// Each calls f for every tuple in insertion order until f returns
// false.  It must not mutate the relation.
func (r *Relation) Each(f func(Tuple) bool) {
	a := r.arity
	for c := r.lo >> chunkShift; c<<chunkShift < r.n; c++ {
		ch := r.chunks[c]
		for i, m := max(r.lo-c*chunkLen, 0), min(r.n-c*chunkLen, chunkLen); i < m; i++ {
			if !f(ch[i*a : i*a+a : i*a+a]) {
				return
			}
		}
	}
}

// At returns the tuple at the given arena offset, as returned by
// Lookup.  Callers must not mutate it.
func (r *Relation) At(off int32) Tuple {
	i := (int(off) & chunkMask) * r.arity
	return r.chunks[off>>chunkShift][i : i+r.arity : i+r.arity]
}

// Clone returns a mutable deep copy (indexes are not copied; they
// build on demand).  The copy of a relation keeps its levels; that of
// a view has none.
func (r *Relation) Clone() *Relation {
	if r.lo > 0 {
		c := New(r.arity)
		c.AppendDisjoint(r)
		return c
	}
	c := &Relation{arity: r.arity, n: r.n, chunks: make([][]int, (r.n+chunkMask)>>chunkShift), levels: slices.Clone(r.levels)}
	for i := range c.chunks {
		c.chunks[i] = slices.Clone(r.chunks[i])
	}
	if !r.frozen {
		c.table, c.spill = r.table.clone(), maps.Clone(r.spill)
		return c
	}
	// Shared key stores may hold entries past the view; rebuild exactly,
	// over the shared table's dense box when the byte rule admits it.
	if r.table != nil && c.n > 0 {
		c.table = newTable(c.arity, c.n, r.table.box)
	}
	off := int32(0)
	r.Each(func(t Tuple) bool {
		k, packs := packKey(t)
		c.setKey(t, k, mix64(k), packs, off)
		off++
		return true
	})
	return c
}

// Equal reports whether r and o contain exactly the same tuples: equal
// cardinality plus one-way containment suffices for sets.
func (r *Relation) Equal(o *Relation) bool {
	return r.arity == o.arity && r.Len() == o.Len() && r.SubsetOf(o)
}

// SubsetOf reports whether every tuple of r is in o.  It iterates the
// arena rather than the key maps, so it is exact for snapshot views,
// whose shared maps may hold entries past the view.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.arity != o.arity || r.Len() > o.Len() {
		return false
	}
	sub := true
	r.Each(func(t Tuple) bool {
		sub = o.offsetOf(t) >= 0
		return sub
	})
	return sub
}

// UnionWith adds every tuple of o to r, returning the number of tuples
// actually added.
func (r *Relation) UnionWith(o *Relation) int {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: union of arities %d and %d", r.arity, o.arity))
	}
	before := r.n
	o.Each(func(t Tuple) bool {
		r.Add(t)
		return true
	})
	return r.n - before
}

// Intersect returns a fresh relation with the tuples common to r and o.
func (r *Relation) Intersect(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: intersect of arities %d and %d", r.arity, o.arity))
	}
	small, large := r, o
	if large.Len() < small.Len() {
		small, large = large, small
	}
	return small.keep(large, true)
}

// Diff returns a fresh relation with the tuples of r not in o.
func (r *Relation) Diff(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: diff of arities %d and %d", r.arity, o.arity))
	}
	return r.keep(o, false)
}

// keep returns a fresh relation with the tuples of r whose membership
// in o is in.
func (r *Relation) keep(o *Relation, in bool) *Relation {
	c := New(r.arity)
	r.Each(func(t Tuple) bool {
		if (o.offsetOf(t) >= 0) == in {
			c.Add(t)
		}
		return true
	})
	return c
}

// Format renders the relation's tuples with constant names from u, in
// sorted order, e.g. "{(a,b), (b,c)}".
func (r *Relation) Format(u *Universe) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r.Tuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range t {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(u.Name(v))
		}
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}

// Full returns the relation Aᵏ: all tuples of the given arity over a
// universe of size n.  Beware: it materializes n^arity tuples.
func Full(arity, n int) *Relation {
	r := New(arity)
	if arity == 0 {
		r.Add(Tuple{})
		return r
	}
	t := make(Tuple, arity)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == arity {
			r.Add(t)
			return
		}
		for v := 0; v < n; v++ {
			t[pos] = v
			rec(pos + 1)
		}
	}
	rec(0)
	return r
}
