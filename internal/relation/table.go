package relation

// Open-addressing hash table for packed uint64 tuple keys.
//
// Relation membership for packable tuples lives here rather than in a
// Go map[uint64]int32, which would scatter a probe across cache lines.
// Table has power-of-two capacity,
// linear probing, and an 8-bit fingerprint control array scanned ahead
// of the key array — a probe touches the dense ctrl bytes first and only
// compares full keys on a fingerprint hit, so misses usually resolve
// within one cache line.  Deletion uses backward-shift compaction, so
// the table is tombstone-free and probe distances never degrade.
//
// The hash of a key is always mix64(key): the insert path computes it
// once and threads it through the membership probe and the put.
//
// Table is not a general map: keys are assumed well-distributed (they
// are always probed via mix64), values are arena offsets, and the
// zero ctrl byte means "empty slot" (fingerprints set bit 7, so a
// live slot is never 0).

const (
	tableMinCap = 16 // smallest slot count; must be a power of two
)

// Table maps packed uint64 keys to int32 arena offsets.
type Table struct {
	ctrl []uint8  // fingerprint | 0x80 per slot; 0 = empty
	keys []uint64 // slot keys, valid where ctrl != 0
	vals []int32  // slot values, valid where ctrl != 0
	mask uint64   // len(ctrl) - 1
	n    int      // live entries
	grow int      // resize threshold (¾ of capacity)
}

// tableFP extracts the 8-bit fingerprint of a hash.  Bit 7 is forced
// on so a live slot's ctrl byte is never 0 (the empty marker).  The
// top bits of the hash are used because linear probing homes on the
// low bits: home slot and fingerprint stay independent.
func tableFP(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// tableCapFor returns the smallest power-of-two capacity that holds n
// entries under the ¾ load ceiling.
func tableCapFor(n int) int {
	c := tableMinCap
	for c-c/4 < n {
		c <<= 1
	}
	return c
}

// newTable returns a table pre-sized for about n entries.
func newTable(n int) *Table {
	t := &Table{}
	t.init(tableCapFor(n))
	return t
}

// init (re)allocates the slot arrays at capacity c, a power of two.
func (t *Table) init(c int) {
	t.ctrl = make([]uint8, c)
	t.keys = make([]uint64, c)
	t.vals = make([]int32, c)
	t.mask = uint64(c - 1)
	t.n = 0
	t.grow = c - c/4
}

// getHash looks up k, whose hash h must equal mix64(k).
func (t *Table) getHash(k, h uint64) (int32, bool) {
	fp := tableFP(h)
	for j := h & t.mask; ; j = (j + 1) & t.mask {
		c := t.ctrl[j]
		if c == 0 {
			return 0, false
		}
		if c == fp && t.keys[j] == k {
			return t.vals[j], true
		}
	}
}

// putHash inserts or updates k -> v; h must equal mix64(k).
func (t *Table) putHash(k, h uint64, v int32) {
	if t.n >= t.grow {
		t.rehash(len(t.ctrl) << 1)
	}
	fp := tableFP(h)
	for j := h & t.mask; ; j = (j + 1) & t.mask {
		c := t.ctrl[j]
		if c == 0 {
			t.ctrl[j] = fp
			t.keys[j] = k
			t.vals[j] = v
			t.n++
			return
		}
		if c == fp && t.keys[j] == k {
			t.vals[j] = v
			return
		}
	}
}

// deleteHash removes k (h must equal mix64(k)), reporting whether it
// was present.  The probe chain is compacted by backward shifting, so
// no tombstones exist: every entry whose probe path crossed the freed
// slot is moved up into it, recursively, until a natural gap.
func (t *Table) deleteHash(k, h uint64) bool {
	fp := tableFP(h)
	j := h & t.mask
	for {
		c := t.ctrl[j]
		if c == 0 {
			return false
		}
		if c == fp && t.keys[j] == k {
			break
		}
		j = (j + 1) & t.mask
	}
	free := j
	for j = (j + 1) & t.mask; t.ctrl[j] != 0; j = (j + 1) & t.mask {
		home := mix64(t.keys[j]) & t.mask
		// Move j up iff its probe path crosses the free slot: the
		// cyclic distance home→j must be at least the distance
		// free→j (equivalently, free lies in [home, j]).
		if (j-home)&t.mask >= (j-free)&t.mask {
			t.ctrl[free] = t.ctrl[j]
			t.keys[free] = t.keys[j]
			t.vals[free] = t.vals[j]
			free = j
		}
	}
	t.ctrl[free] = 0
	t.n--
	return true
}

// rehash rebuilds the table at the given power-of-two capacity.
func (t *Table) rehash(c int) {
	oc, ok, ov := t.ctrl, t.keys, t.vals
	t.init(c)
	for j, cb := range oc {
		if cb != 0 {
			t.putHash(ok[j], mix64(ok[j]), ov[j])
		}
	}
}

// clone returns a deep copy.  Nil-safe: cloning a nil table (a
// relation that never inserted a packed tuple) returns nil.
func (t *Table) clone() *Table {
	if t == nil {
		return nil
	}
	c := &Table{
		ctrl: make([]uint8, len(t.ctrl)),
		keys: make([]uint64, len(t.keys)),
		vals: make([]int32, len(t.vals)),
		mask: t.mask,
		n:    t.n,
		grow: t.grow,
	}
	copy(c.ctrl, t.ctrl)
	copy(c.keys, t.keys)
	copy(c.vals, t.vals)
	return c
}

// each calls f for every live (key, value) entry until f returns
// false.  Iteration order is slot order, not insertion order.
func (t *Table) each(f func(k uint64, v int32) bool) {
	if t == nil {
		return
	}
	for j, c := range t.ctrl {
		if c != 0 && !f(t.keys[j], t.vals[j]) {
			return
		}
	}
}
