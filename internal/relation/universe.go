// Package relation implements the relational substrate of the
// reproduction: interned universes of constants, tuples, set-semantics
// relations with hash indexes on column subsets, and named databases.
//
// The paper evaluates DATALOG¬ programs over finite databases
// D = (A, R₁, …, Rₗ).  A Universe is the finite set A with constants
// interned to dense integers, a Relation is a finite set of tuples over
// A, and a Database bundles a universe with named relations.  All
// iteration orders exposed by this package are deterministic (sorted),
// so every layer built on top is reproducible bit-for-bit.
//
// Storage.  The paper's semantics are polynomial because a fixpoint
// holds at most |A|^k tuples, and the engine materialises exactly those,
// so the bytes behind one stored tuple are the constant in front of that
// bound.  A relation keeps its tuples as bare ids in fixed-size,
// pointer-free chunks (relation.go) and their membership in one table
// of packed keys (table.go, key.go): a stored tuple costs 8·arity bytes
// of ids plus a 13-byte hash slot at ¾ load or less, or a 4-byte slot of
// an array over a box of id extents when that costs fewer bytes.  It is
// allocated with its chunk rather than on its own, and is read back as
// a view of the chunk, valid until its relation is next removed from;
// a sorted read (Tuples) is a slice of such views, which an array key
// table lists in key order without sorting or copying a tuple.
// Snapshots share chunks with the live relation, which copies
// only the chunks it writes after a publish.  Storage is never recycled:
// a relation nobody references is garbage, chunks and table included.
package relation

import "fmt"

// Universe interns constant names to dense non-negative integers.  It is
// the finite universe A of a database: every value that can appear in a
// tuple is an element of the universe.  The zero value is not usable;
// create universes with NewUniverse.
//
// Density matters beyond hygiene: Relation's packed tuple keys devote
// ⌊64/arity⌋ bits to each element (see key.go), so ids assigned
// compactly from 0 keep every realistic universe on the allocation-free
// fast path.
type Universe struct {
	names []string
	index map[string]int
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{index: make(map[string]int)}
}

// Intern returns the dense id for name, adding it to the universe if it
// is not already present.  Ids are assigned in first-interned order,
// starting from 0.
func (u *Universe) Intern(name string) int {
	if id, ok := u.index[name]; ok {
		return id
	}
	id := len(u.names)
	u.names = append(u.names, name)
	u.index[name] = id
	return id
}

// Lookup reports the id for name and whether the name is interned.
func (u *Universe) Lookup(name string) (int, bool) {
	id, ok := u.index[name]
	return id, ok
}

// Name returns the constant name for id.  It panics if id is out of
// range, which always indicates a bug in the caller.
func (u *Universe) Name(id int) string {
	if id < 0 || id >= len(u.names) {
		panic(fmt.Sprintf("relation: universe id %d out of range [0,%d)", id, len(u.names)))
	}
	return u.names[id]
}

// Size returns the number of interned constants, |A|.
func (u *Universe) Size() int { return len(u.names) }

// Names returns a copy of all interned names in id order.
func (u *Universe) Names() []string {
	out := make([]string, len(u.names))
	copy(out, u.names)
	return out
}

// Elements returns all ids 0..Size()-1, the active domain of the
// database.  The slice is freshly allocated.
func (u *Universe) Elements() []int {
	out := make([]int, len(u.names))
	for i := range out {
		out[i] = i
	}
	return out
}

// Clone returns a deep copy of the universe.
func (u *Universe) Clone() *Universe {
	c := &Universe{
		names: make([]string, len(u.names)),
		index: make(map[string]int, len(u.index)),
	}
	copy(c.names, u.names)
	for k, v := range u.index {
		c.index[k] = v
	}
	return c
}
