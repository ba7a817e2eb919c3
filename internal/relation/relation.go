package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a finite set of tuples of a fixed arity.  Arity 0 is
// allowed: such a relation is either empty ("false") or contains the
// single empty tuple ("true"); the paper's toggle constructions never
// need it but the engine supports it uniformly.
//
// Storage is a flat arena of tuples in insertion order plus a hash set
// of packed integer keys (see key.go) mapping each tuple to its arena
// offset — no per-tuple string allocation on the evaluation hot path.
// Hash indexes on one column or several map a key to arena offsets;
// they are built lazily on first lookup, extended after appends,
// patched by Remove and inherited by snapshots (see index.go).
//
// Snapshots (see Snapshot and Seal) are O(1) immutable views that share
// the arena and key maps with the live relation: because offsets are
// assigned monotonically while the relation only grows, a view of
// length n is exactly "the first n arena entries", and shared map
// entries at offsets ≥ n are invisible to it.  The live relation
// detaches (copies its storage, leaving the old storage to the views)
// before any mutation that would rewrite the shared prefix: every
// Remove, and — after Seal — every mutation at all.
//
// Concurrency: any number of goroutines may read a relation (Has, Each,
// Lookup, At, ...) concurrently — lazy index construction is internally
// synchronized — but mutation requires exclusive access with respect to
// readers of the relation and of any snapshot still sharing its
// storage.  Sealing removes the latter requirement: after Seal, the
// first mutation copies the storage, so sealed snapshots may be read by
// other goroutines while the live relation is updated.
type Relation struct {
	arity  int
	arena  []Tuple          // tuples in insertion order
	packed map[uint64]int32 // packed key -> arena offset (oracle mode; nil in table mode)
	table  *Table           // packed key -> arena offset (table mode; lazily allocated)
	spill  map[string]int32 // fallback key -> arena offset (wide/huge tuples)

	share  int8 // storage sharing mode (shareNone/shareWeak/shareSealed)
	frozen bool // immutable snapshot view; mutation panics

	// Lazily built indexes (see index.go).  idxShared is set once a view
	// has taken the current sets: their buckets are then copied before
	// Remove edits them.
	mu        sync.Mutex                   // serializes index builds
	idx       atomic.Pointer[colIndexes]   // per-column indexes, nil until built
	cidx      atomic.Pointer[compIndexSet] // composite indexes by column mask
	idxShared bool
}

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
// negative arity.  Packed-key membership uses the open-addressing
// Table unless the oracle map mode is selected process-wide (see
// SetDefaultPackedTable); in table mode the table itself is allocated
// lazily on the first packed insert, so empty relations stay cheap.
func New(arity int) *Relation {
	if arity < 0 {
		panic(fmt.Sprintf("relation: negative arity %d", arity))
	}
	if PackedTableEnabled() {
		return &Relation{arity: arity}
	}
	return &Relation{arity: arity, packed: make(map[uint64]int32)}
}

// FromTuples builds a relation of the given arity from tuples.  Tuples
// of the wrong arity cause a panic; duplicates collapse.
func FromTuples(arity int, tuples []Tuple) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.arena) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.arena) == 0 }

// offsetOf returns the arena offset of t, or -1 if absent.  Offsets at
// or beyond the arena length belong to tuples appended to a live
// relation after this view was taken; they are not part of this
// relation.
func (r *Relation) offsetOf(t Tuple) int32 {
	if k, ok := packKey(t); ok {
		return r.packedOff(k, mix64(k))
	}
	if off, ok := r.spill[spillKey(t)]; ok && off < int32(len(r.arena)) {
		return off
	}
	return -1
}

// packedOff returns the visible arena offset of packed key k (whose
// hash h must equal mix64(k)), or -1, probing whichever packed-key
// store this relation uses.
func (r *Relation) packedOff(k, h uint64) int32 {
	if r.packed != nil {
		if off, ok := r.packed[k]; ok && off < int32(len(r.arena)) {
			return off
		}
		return -1
	}
	if r.table != nil {
		if off, ok := r.table.getHash(k, h); ok && off < int32(len(r.arena)) {
			return off
		}
	}
	return -1
}

// packedPut records packed key k -> off; h must equal mix64(k).
func (r *Relation) packedPut(k, h uint64, off int32) {
	if r.packed != nil {
		r.packed[k] = off
		return
	}
	if r.table == nil {
		r.table = newTable(0)
	}
	r.table.putHash(k, h, off)
}

// Snapshot returns an O(1) immutable view of the relation's current
// contents, sharing storage with r.  Tuples added to r afterwards are
// invisible to the view; a later Remove on r copies r's storage first,
// so the view stays valid either way.  Mutating the view panics.
//
// The view may be read concurrently with other reads, but mutating r
// while another goroutine reads the view requires r to be sealed first
// (see Seal); within one goroutine (or any happens-before chain) no
// sealing is needed.
func (r *Relation) Snapshot() *Relation {
	if r.frozen {
		return r // already an immutable view
	}
	if r.share == shareNone {
		r.share = shareWeak
	}
	return r.view(len(r.arena))
}

// Prefix returns an O(1) immutable view of the first n tuples in
// insertion order, sharing storage with r exactly like Snapshot (key
// entries at offsets ≥ n are invisible to the view).  It is how a
// restored maintainer reconstructs its inflationary stage log: each
// logged stage is, by the monotone-append invariant of the fixpoint
// loops, a length-prefix of the final arena, so persisting the lengths
// alone suffices.  It panics when n exceeds the current length.
func (r *Relation) Prefix(n int) *Relation {
	if n < 0 || n > len(r.arena) {
		panic(fmt.Sprintf("relation: prefix %d of relation with %d tuples", n, len(r.arena)))
	}
	if !r.frozen && r.share == shareNone {
		r.share = shareWeak
	}
	return r.view(n)
}

// Seal marks the relation's storage as published: the next mutation —
// including appends — will copy the storage, leaving the current arena
// and key maps exclusively to existing snapshots.  Call it after
// handing a Snapshot to readers on other goroutines.  Sealing an
// already-sealed or frozen relation is a no-op.
func (r *Relation) Seal() {
	if !r.frozen {
		r.share = shareSealed
	}
}

// view builds the frozen snapshot struct sharing the first n tuples of
// r's storage, and the indexes r has built over them.
func (r *Relation) view(n int) *Relation {
	v := &Relation{
		arity:  r.arity,
		arena:  r.arena[:n:n],
		packed: r.packed,
		table:  r.table,
		spill:  r.spill,
		frozen: true,
	}
	r.shareIndexes(v)
	return v
}

// beforeMutate enforces the mutation contract: frozen views reject
// mutation, and shared storage is detached first when the mutation
// would otherwise corrupt live snapshots (any mutation once sealed;
// removals under weak sharing, where removeOnly reports false).
func (r *Relation) beforeMutate(appendOnly bool) {
	if r.frozen {
		panic("relation: mutating an immutable snapshot")
	}
	if r.share == shareSealed || (r.share == shareWeak && !appendOnly) {
		r.detach()
	}
}

// detach copies the arena and key maps so existing snapshots keep the
// old storage exclusively.  Offsets are preserved, so the indexes stay
// valid (and stay shared with those snapshots).
func (r *Relation) detach() {
	arena := make([]Tuple, len(r.arena))
	copy(arena, r.arena)
	if r.packed != nil {
		packed := make(map[uint64]int32, len(r.packed))
		for k, off := range r.packed {
			if off < int32(len(arena)) {
				packed[k] = off
			}
		}
		r.packed = packed
	} else {
		// Live relations never hold offsets past their own arena, so
		// a straight copy preserves the table exactly.
		r.table = r.table.clone()
	}
	r.arena = arena
	if len(r.spill) > 0 {
		spill := make(map[string]int32, len(r.spill))
		for k, off := range r.spill {
			if off < int32(len(arena)) {
				spill[k] = off
			}
		}
		r.spill = spill
	}
	r.share = shareNone
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
// of t does not match the relation's.  The tuple is copied, so callers
// may reuse the backing slice; duplicates are rejected before the copy,
// so re-adding existing tuples does not allocate.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: adding tuple of arity %d to relation of arity %d", len(t), r.arity))
	}
	if r.Has(t) {
		return false
	}
	r.beforeMutate(true)
	r.insertKey(t)
	r.arena = append(r.arena, t.Clone())
	return true
}

// insertKey records t's key at the next arena offset.  Callers have
// already rejected duplicates (via Has); the caller appends the tuple
// itself.
func (r *Relation) insertKey(t Tuple) {
	off := int32(len(r.arena))
	if k, ok := packKey(t); ok {
		r.packedPut(k, mix64(k), off)
		return
	}
	if r.spill == nil {
		r.spill = make(map[string]int32)
	}
	r.spill[spillKey(t)] = off
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

// HasHash is Has for callers that already computed h = TupleHash(t),
// e.g. the engine's emit path, which needs the same hash for the
// Bloom filter and partition ownership.  Passing a wrong hash yields
// wrong answers; it is the caller's contract, not checked.
func (r *Relation) HasHash(t Tuple, h uint64) bool {
	if len(t) != r.arity {
		return false
	}
	if k, ok := packKey(t); ok {
		return r.packedOff(k, h) >= 0
	}
	off, ok := r.spill[spillKey(t)]
	return ok && off < int32(len(r.arena))
}

// AddHash is Add for callers that already computed h = TupleHash(t):
// the membership probe and the insert reuse the hash instead of
// re-deriving it from the packed key.
func (r *Relation) AddHash(t Tuple, h uint64) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: adding tuple of arity %d to relation of arity %d", len(t), r.arity))
	}
	if k, ok := packKey(t); ok {
		if r.packedOff(k, h) >= 0 {
			return false
		}
		r.beforeMutate(true)
		r.packedPut(k, h, int32(len(r.arena)))
		r.arena = append(r.arena, t.Clone())
		return true
	}
	return r.addSpillNotIn(t, nil)
}

// AddNotIn inserts t unless it is already present in filter — the fused
// emit of the engine's frontier evaluation: one read-only membership
// probe against the accumulated state, then a straight insert into the
// delta.  A nil filter degenerates to Add.  filter must have the same
// arity as r (the key encoding is deterministic per tuple, so one packed
// key serves both probes).  It reports whether t was inserted.
func (r *Relation) AddNotIn(t Tuple, filter *Relation) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: adding tuple of arity %d to relation of arity %d", len(t), r.arity))
	}
	if k, ok := packKey(t); ok {
		return r.addPackedNotIn(t, k, mix64(k), filter)
	}
	return r.addSpillNotIn(t, filter)
}

// AddNotInHash is AddNotIn for callers that already computed
// h = TupleHash(t): one emit-time hash feeds the filter probe here,
// the Bloom filter, and partition ownership at the call site.
func (r *Relation) AddNotInHash(t Tuple, h uint64, filter *Relation) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: adding tuple of arity %d to relation of arity %d", len(t), r.arity))
	}
	if k, ok := packKey(t); ok {
		return r.addPackedNotIn(t, k, h, filter)
	}
	return r.addSpillNotIn(t, filter)
}

// addPackedNotIn is the packed-tuple body of AddNotIn/AddNotInHash:
// h must equal mix64(k) == TupleHash(t).
func (r *Relation) addPackedNotIn(t Tuple, k, h uint64, filter *Relation) bool {
	if filter != nil && filter.packedOff(k, h) >= 0 {
		return false
	}
	if r.packedOff(k, h) >= 0 {
		return false
	}
	r.beforeMutate(true)
	r.packedPut(k, h, int32(len(r.arena)))
	r.arena = append(r.arena, t.Clone())
	return true
}

// addSpillNotIn is the wide-tuple fallback of AddNotIn/AddNotInHash:
// membership keys off the byte-string spill encoding regardless of
// which hash the caller computed.
func (r *Relation) addSpillNotIn(t Tuple, filter *Relation) bool {
	if filter != nil && filter.Has(t) {
		return false
	}
	if r.Has(t) {
		return false
	}
	r.beforeMutate(true)
	r.insertKey(t)
	r.arena = append(r.arena, t.Clone())
	return true
}

// ReserveHint pre-sizes the relation's storage for about n tuples, so a
// caller that knows the expected cardinality (e.g. last round's delta)
// avoids incremental map growth on the hot insert path.  It only acts
// on a still-empty mutable relation; otherwise it is a no-op.  It is
// capacity-aware: storage a recycled relation (see Reset) already owns
// is kept, so the steady state of a pooled scratch relation allocates
// nothing here.
func (r *Relation) ReserveHint(n int) {
	if r.frozen || len(r.arena) > 0 || n <= 0 {
		return
	}
	if cap(r.arena) < n {
		r.arena = make([]Tuple, 0, n)
	}
	if r.packed != nil {
		r.packed = make(map[uint64]int32, n)
		return
	}
	if r.table == nil || r.share != shareNone {
		// A shared (snapshotted/sealed) table must not grow in place:
		// views hold the same Table, so replace rather than resize.
		r.table = newTable(n)
		return
	}
	r.table.Reserve(n)
}

// Reset clears the relation for reuse, keeping allocated capacity
// (arena, table slots, map buckets) — the freelist protocol of the
// engine's per-round scratch pools.  It refuses, returning false,
// when the storage is frozen or still shared with snapshots; such a
// relation must be dropped, not recycled.
func (r *Relation) Reset() bool {
	if r.frozen || r.share != shareNone {
		return false
	}
	for i := range r.arena {
		r.arena[i] = nil
	}
	r.arena = r.arena[:0]
	if r.packed != nil {
		clear(r.packed)
	} else if r.table != nil {
		r.table.Reset()
	}
	if r.spill != nil {
		clear(r.spill)
	}
	r.dropIndexes()
	return true
}

// AppendDisjoint appends every tuple of o without membership probes.
// The caller must guarantee that o is disjoint from r's current
// contents (e.g. the two are hash partitions over disjoint key ranges);
// violating that corrupts the relation.  Tuples are shared, not cloned —
// they are immutable by contract.
func (r *Relation) AppendDisjoint(o *Relation) {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: appending arity %d into arity %d", o.arity, r.arity))
	}
	if o.Empty() {
		return
	}
	r.beforeMutate(true)
	for _, t := range o.arena {
		r.insertKey(t)
		r.arena = append(r.arena, t)
	}
}

// ConcatDisjoint assembles one relation from pairwise-disjoint parts
// (hash partitions of a derivation pass): arenas are appended and keys
// inserted without any membership probe, so the merge is a disjoint
// concatenation rather than a re-hashed union.
func ConcatDisjoint(arity int, parts []*Relation) *Relation {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.Len()
		}
	}
	r := New(arity)
	r.ReserveHint(total)
	for _, p := range parts {
		if p != nil {
			r.AppendDisjoint(p)
		}
	}
	return r
}

// Remove deletes t, reporting whether it was present.  The arena stays
// dense: the last tuple is swapped into the vacated slot, and the built
// indexes are patched for the two offsets that changed.  If snapshots
// share the storage, it is detached first, so they keep seeing the
// pre-removal contents.
func (r *Relation) Remove(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	off := r.offsetOf(t)
	if off < 0 {
		return false
	}
	r.beforeMutate(false)
	removed := r.arena[off]
	r.deleteKey(removed)
	last := int32(len(r.arena) - 1)
	var moved Tuple
	if off != last {
		moved = r.arena[last]
		r.arena[off] = moved
		if k, ok := packKey(moved); ok {
			r.packedPut(k, mix64(k), off)
		} else {
			r.spill[spillKey(moved)] = off
		}
	}
	r.arena[last] = nil
	r.arena = r.arena[:last]
	r.unindex(off, last, removed, moved)
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
	for _, t := range o.arena {
		if r.Remove(t) {
			removed++
		}
	}
	return removed
}

func (r *Relation) deleteKey(t Tuple) {
	if k, ok := packKey(t); ok {
		if r.packed != nil {
			delete(r.packed, k)
		} else if r.table != nil {
			r.table.deleteHash(k, mix64(k))
		}
		return
	}
	delete(r.spill, spillKey(t))
}

// Tuples returns all tuples in deterministic (sorted) order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.arena))
	copy(out, r.arena)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Each calls f for every tuple in insertion order until f returns
// false.  It must not mutate the relation.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, t := range r.arena {
		if !f(t) {
			return
		}
	}
}

// At returns the tuple at the given arena offset, as returned by
// Lookup.  Callers must not mutate it.
func (r *Relation) At(off int32) Tuple { return r.arena[off] }

// Clone returns a mutable deep copy (indexes are not copied; they
// build on demand).  Tuples themselves are shared: they are immutable
// by contract.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		arity: r.arity,
		arena: make([]Tuple, len(r.arena)),
	}
	copy(c.arena, r.arena)
	if r.frozen {
		// Shared key stores may hold entries past the view; rebuild
		// exactly, in the source's storage mode.
		if r.packed != nil {
			c.packed = make(map[uint64]int32, len(c.arena))
		} else if len(c.arena) > 0 {
			c.table = newTable(len(c.arena))
		}
		for off, t := range c.arena {
			if k, ok := packKey(t); ok {
				c.packedPut(k, mix64(k), int32(off))
			} else {
				if c.spill == nil {
					c.spill = make(map[string]int32)
				}
				c.spill[spillKey(t)] = int32(off)
			}
		}
		return c
	}
	if r.packed != nil {
		c.packed = make(map[uint64]int32, len(r.packed))
		for k, off := range r.packed {
			c.packed[k] = off
		}
	} else {
		c.table = r.table.clone()
	}
	if len(r.spill) > 0 {
		c.spill = make(map[string]int32, len(r.spill))
		for k, off := range r.spill {
			c.spill[k] = off
		}
	}
	return c
}

// Equal reports whether r and o contain exactly the same tuples: equal
// cardinality plus one-way containment suffices for sets.
func (r *Relation) Equal(o *Relation) bool {
	return r.arity == o.arity && len(r.arena) == len(o.arena) && r.SubsetOf(o)
}

// SubsetOf reports whether every tuple of r is in o.  It iterates the
// arena rather than the key maps, so it is exact for snapshot views,
// whose shared maps may hold entries past the view.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.arity != o.arity || len(r.arena) > len(o.arena) {
		return false
	}
	for _, t := range r.arena {
		if o.offsetOf(t) < 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every tuple of o to r, returning the number of tuples
// actually added.
func (r *Relation) UnionWith(o *Relation) int {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: union of arities %d and %d", r.arity, o.arity))
	}
	added := 0
	for _, t := range o.arena {
		// Tuples already owned by a relation are immutable; insert
		// without re-cloning.
		if r.addOwned(t) {
			added++
		}
	}
	return added
}

// addOwned inserts t without copying it.  The caller must guarantee t
// is never mutated afterwards.  Like every append, it leaves cached
// indexes valid for their covered prefix; probes extend them.
func (r *Relation) addOwned(t Tuple) bool {
	if r.Has(t) {
		return false
	}
	r.beforeMutate(true)
	r.insertKey(t)
	r.arena = append(r.arena, t)
	return true
}

// Union returns a fresh relation with the tuples of both r and o.
func (r *Relation) Union(o *Relation) *Relation {
	c := r.Clone()
	c.UnionWith(o)
	return c
}

// Intersect returns a fresh relation with the tuples common to r and o.
func (r *Relation) Intersect(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: intersect of arities %d and %d", r.arity, o.arity))
	}
	c := New(r.arity)
	small, large := r, o
	if large.Len() < small.Len() {
		small, large = large, small
	}
	for _, t := range small.arena {
		if large.offsetOf(t) >= 0 {
			c.addOwned(t)
		}
	}
	return c
}

// Diff returns a fresh relation with the tuples of r not in o.
func (r *Relation) Diff(o *Relation) *Relation {
	if r.arity != o.arity {
		panic(fmt.Sprintf("relation: diff of arities %d and %d", r.arity, o.arity))
	}
	c := New(r.arity)
	for _, t := range r.arena {
		if o.offsetOf(t) < 0 {
			c.addOwned(t)
		}
	}
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
