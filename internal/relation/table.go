package relation

import "slices"

// Key tables map packed uint64 tuple keys to int32 arena offsets in one
// of two layouts.
//
// Open addressing: power-of-two capacity, linear probing, and an 8-bit
// fingerprint array scanned ahead of the keys, so a probe compares full
// keys only on a fingerprint hit.  The hash is always mix64(key),
// computed once per insert.  A ctrl byte of 0 marks an empty slot
// (fingerprints set bit 7); deletion shifts the probe chain back, so
// there are no tombstones.  A slot costs 13 bytes, at ¾ load or less.
//
// Dense: a relation of arity k holds at most |A|^k tuples, and a
// fixpoint gets close.  Keys inside a box of per-column id extents
// index an array by their mixed-radix position, first column most
// significant; a slot holds offset+1 (0 = empty) in 4 bytes.  A probe
// is one load, a write one store.
//
// The byte rule picks the layout, only where the table is sized: a
// growing open-addressing table or a clone of either layout turns dense
// when the tightest box around its keys costs no more bytes than open
// addressing at that capacity, and a snapshot view's copy is rebuilt
// over the box of the table it shares when that box passes the rule at
// the view's size.  A
// key outside a dense box widens each extent it overruns at least 2×,
// up to the packing limit; when the widened box breaks the byte rule,
// the tightest box around the keys is widened instead, and one that
// still breaks it sends the table back to open addressing.  Arity 0 is
// never dense.

const (
	tableMinCap = 16 // smallest slot count; must be a power of two
	slotBytes   = 13 // one open-addressing slot: ctrl byte, key, value
	denseBytes  = 4  // one dense slot
)

// Table maps packed uint64 keys to int32 arena offsets.
type Table struct {
	ctrl []uint8  // fingerprint | 0x80 per slot; 0 = empty
	keys []uint64 // slot keys, valid where ctrl != 0
	vals []int32  // slot values, valid where ctrl != 0
	mask uint64   // len(ctrl) - 1
	n    int      // live entries
	grow int      // resize threshold (¾ of capacity)

	dense []int32 // the dense layout when non-nil: offset+1 per box slot
	box   []span  // the dense box: per-column id extents, first column first
	arity int
	bits  uint // packed width of one column
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

// newTable returns an empty table for keys of the given arity,
// pre-sized for about n entries: dense over box when the byte rule
// admits it at that size, else open addressing.
func newTable(arity, n int, box []span) *Table {
	t := &Table{arity: arity, bits: packBits(arity)}
	t.refill(Table{}, tableCapFor(n), box)
	return t
}

// init (re)allocates the open-addressing arrays at capacity c, a power
// of two, and drops the dense layout.
func (t *Table) init(c int) {
	t.ctrl = make([]uint8, c)
	t.keys = make([]uint64, c)
	t.vals = make([]int32, c)
	t.mask = uint64(c - 1)
	t.grow = c - c/4
	t.dense, t.box = nil, nil
}

// span is one column's extent in the dense box: the ids lo ≤ id < lo+n.
type span struct{ lo, n uint64 }

// slot returns k's position in the dense box, or false when a column
// of k lies outside it.
func (t *Table) slot(k uint64) (uint64, bool) {
	i, sh := uint64(0), t.bits*uint(len(t.box))
	for _, s := range t.box {
		sh -= t.bits
		c := k>>sh&(1<<t.bits-1) - s.lo
		if c >= s.n {
			return 0, false
		}
		i = i*s.n + c
	}
	return i, true
}

// keyAt inverts slot: the packed key at dense position i.
func (t *Table) keyAt(i uint64) uint64 {
	var k uint64
	for j, sh := len(t.box)-1, uint(0); j >= 0; j, sh = j-1, sh+t.bits {
		s := t.box[j]
		k |= (s.lo + i%s.n) << sh
		i /= s.n
	}
	return k
}

// widen stretches box to hold key k: a span that a column of k
// overruns grows to cover it and, toward it, to at least step times
// its size, as far as id 0 and the packing limit allow (a box slot past
// the limit would name no packed key, and keyAt would decode garbage).
func (t *Table) widen(box []span, k, step uint64) []span {
	lim := uint64(1) << min(t.bits, 63) // arity 1 packs ids below 2⁶³
	for j := len(box) - 1; j >= 0; j-- {
		c, s := k&(1<<t.bits-1), &box[j]
		k >>= t.bits
		switch {
		case s.n == 0:
			*s = span{c, 1}
		case c < s.lo:
			hi := s.lo + s.n
			s.lo = min(c, hi-min(hi, step*s.n))
			s.n = hi - s.lo
		case c-s.lo >= s.n:
			s.n = min(max(step*s.n, c-s.lo+1), lim-s.lo)
		}
	}
	return box
}

// tightBox fills box, arity empty spans, with the smallest box holding
// every key, and returns it.  A hash walk stops once the keys seen so
// far break the byte rule at capacity c; a dense one reads the first
// and last key of each run of the last column, which bound the run.
func (t *Table) tightBox(c int, box []span) []span {
	if t.dense != nil {
		w := int(t.box[len(t.box)-1].n)
		for r := 0; r < len(t.dense); r += w {
			i, j := r, r+w-1
			for i < j && t.dense[i] == 0 {
				i++
			}
			for j > i && t.dense[j] == 0 {
				j--
			}
			if t.dense[i] != 0 {
				t.widen(box, t.keyAt(uint64(i)), 1)
				t.widen(box, t.keyAt(uint64(j)), 1)
			}
		}
		return box
	}
	seen := 0
	for j, cb := range t.ctrl {
		if cb != 0 {
			t.widen(box, t.keys[j], 1)
			if seen++; seen&255 == 0 && denseLen(box, c) == 0 {
				break
			}
		}
	}
	return box
}

// denseLen applies the byte rule: the slot count of box when it is
// non-empty and costs no more bytes than open addressing at capacity
// c, else 0.
func denseLen(box []span, c int) int {
	room, size := uint64(c)*slotBytes/denseBytes, uint64(min(len(box), 1))
	for _, s := range box {
		if s.n == 0 || s.n > room/size {
			return 0
		}
		size *= s.n
	}
	return int(size)
}

// get looks up k, whose hash h must equal mix64(k).
func (t *Table) get(k, h uint64) (int32, bool) {
	if t.dense != nil {
		i, ok := t.slot(k)
		if !ok || t.dense[i] == 0 {
			return 0, false
		}
		return t.dense[i] - 1, true
	}
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

// put inserts or updates k -> v; h must equal mix64(k).
func (t *Table) put(k, h uint64, v int32) {
	if t.dense != nil {
		if i, ok := t.slot(k); ok {
			if t.dense[i] == 0 {
				t.n++
			}
			t.dense[i] = v + 1
			return
		}
		c := tableCapFor(t.n + 1)
		box := t.widen(slices.Clone(t.box), k, 2)
		if denseLen(box, c) == 0 {
			// The box may be up to 2× too wide per column already: before
			// giving up on the array, widen the tight one, as a hash
			// regrow does.
			box = t.widen(t.tightBox(c, make([]span, t.arity)), k, 2)
		}
		t.refill(*t, c, box)
		t.put(k, h, v)
		return
	}
	if t.n >= t.grow {
		c := len(t.ctrl) << 1
		t.refill(*t, c, t.widen(t.tightBox(c, make([]span, t.arity)), k, 1))
		t.put(k, h, v)
		return
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

// clear removes every entry, keeping the layout and its arrays.
// Nil-safe.
func (t *Table) clear() {
	if t == nil {
		return
	}
	clear(t.ctrl)
	clear(t.dense)
	t.n = 0
}

// del removes k (h must equal mix64(k)), reporting whether it was
// present.  The probe chain is compacted by backward shifting, so no
// tombstones exist: every entry whose probe path crossed the freed
// slot is moved up into it, recursively, until a natural gap.
func (t *Table) del(k, h uint64) bool {
	if t.dense != nil {
		i, ok := t.slot(k)
		if !ok || t.dense[i] == 0 {
			return false
		}
		t.dense[i] = 0
		t.n--
		return true
	}
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

// refill lays t out afresh, over box if the byte rule admits it at
// capacity c, else open addressing at c, and moves every entry of src
// (possibly t's previous layout) into it.
func (t *Table) refill(src Table, c int, box []span) {
	if m := denseLen(box, c); m > 0 {
		t.ctrl, t.keys, t.vals = nil, nil, nil
		t.dense, t.box = make([]int32, m), box
	} else {
		t.init(c)
	}
	in, out := &src, t
	if len(t.dense) < len(src.dense) {
		in, out = t, &src
	}
	if src.dense != nil && t.dense != nil && holds(out.box, in.box) {
		// A last-column run of the smaller box is contiguous in both
		// arrays.  (A regrow around the tight box may hold neither.)
		w := int(in.box[len(in.box)-1].n)
		for r := 0; r < len(in.dense); r += w {
			i, ok := out.slot(in.keyAt(uint64(r)))
			if !ok {
				panic("relation: a resized dense box lost a run of its keys")
			}
			if in == t {
				copy(t.dense[r:r+w], src.dense[i:])
			} else {
				copy(t.dense[i:], src.dense[r:r+w])
			}
		}
		t.n = src.n
		return
	}
	t.n = 0
	for i, v := range src.dense {
		if v != 0 {
			k := src.keyAt(uint64(i))
			t.put(k, mix64(k), v-1)
		}
	}
	for j, cb := range src.ctrl {
		if cb != 0 {
			t.put(src.keys[j], mix64(src.keys[j]), src.vals[j])
		}
	}
}

// holds reports whether box a holds box b.
func holds(a, b []span) bool {
	for j, s := range b {
		if s.lo < a[j].lo || s.lo+s.n > a[j].lo+a[j].n {
			return false
		}
	}
	return true
}

// clone returns a deep copy, over the tightest box around the keys (a
// dense box grown by sorted inserts may be 2× wider per column) when
// the byte rule admits it at the capacity that holds them.  Nil-safe:
// cloning a nil table returns nil.
func (t *Table) clone() *Table {
	if t == nil {
		return nil
	}
	cp := max(len(t.ctrl), tableCapFor(t.n))
	var buf [8]span // a clone that keeps its box allocates none
	if box := t.tightBox(cp, slices.Grow(buf[:0], t.arity)[:t.arity]); (denseLen(box, cp) > 0) != (t.dense != nil) || t.dense != nil && !slices.Equal(box, t.box) {
		d := &Table{arity: t.arity, bits: t.bits}
		d.refill(*t, cp, slices.Clone(box))
		return d
	}
	c := *t
	c.ctrl, c.keys, c.vals, c.dense = slices.Clone(t.ctrl), slices.Clone(t.keys), slices.Clone(t.vals), slices.Clone(t.dense)
	return &c
}
