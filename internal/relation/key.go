package relation

import "encoding/binary"

// Packed tuple keys.
//
// A Relation stores membership as a hash set keyed by a compact integer
// encoding of each tuple rather than by a string, so the Θ hot path
// (Has/Add during rule evaluation) performs no per-tuple string
// allocation.  For a tuple of arity k ≥ 1 the packed encoding assigns
// each element ⌊64/k⌋ bits of a single uint64; a tuple packs iff every
// element is non-negative and fits in that width.  Within a fixed arity
// the encoding is injective: the key is the fixed-width concatenation
// of the elements.  Universe ids are dense and start at 0 (see
// Universe), so for the common arities the packed form covers huge
// universes: arity 1 ≈ unbounded, arity 2 up to 2³² constants, arity 3
// up to 2²¹, arity 4 up to 2¹⁶.
//
// Tuples that do not pack (wide arities or ids beyond the width) spill
// to a secondary map keyed by a compact byte-string encoding: 4 bytes
// per element big-endian when every element fits in a uint32, 8 bytes
// otherwise.  The two widths yield different key lengths for the same
// arity, and a given tuple always encodes the same way, so packed and
// spilled tuples can never be confused: each tuple deterministically
// belongs to exactly one of the two maps.

// packBits returns the per-element bit width of the packed encoding for
// the given arity.
func packBits(arity int) uint {
	if arity <= 0 {
		return 64
	}
	return uint(64 / arity)
}

// packKey returns the packed uint64 key for t and true, or 0 and false
// when t does not fit the packed encoding and must spill.
func packKey(t Tuple) (uint64, bool) {
	k := len(t)
	if k == 0 {
		return 0, true
	}
	bits := packBits(k)
	if bits >= 63 {
		// Arity 1: any non-negative int packs.
		if t[0] < 0 {
			return 0, false
		}
		return uint64(t[0]), true
	}
	limit := uint64(1) << bits
	var key uint64
	for _, v := range t {
		if v < 0 || uint64(v) >= limit {
			return 0, false
		}
		key = key<<bits | uint64(v)
	}
	return key, true
}

// mix64 is the splitmix64 finalizer: a bijective scramble of a packed
// key into a well-mixed 64-bit hash (the raw key is a fixed-width
// concatenation, so its low bits are just the last element).  It is the
// hash the open-addressing Table probes with.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// PackKey returns the packed uint64 key of t and true when t fits the
// packed encoding, or 0 and false when it must spill.  The packed key
// is the storage-layer serialization of the tuple: within a fixed
// arity it is injective, so a snapshot file can store 8 bytes per
// tuple and recover the tuple exactly with UnpackKey.
func PackKey(t Tuple) (uint64, bool) { return packKey(t) }

// UnpackKey inverts PackKey for the given arity: it decodes the
// fixed-width concatenation back into a fresh tuple.  The caller must
// pass a key produced by PackKey for a tuple of the same arity;
// UnpackKey(k, len(t)) of PackKey(t) = t for every packable t.
func UnpackKey(key uint64, arity int) Tuple {
	t := make(Tuple, max(arity, 0))
	unpackKey(key, t)
	return t
}

// unpackKey decodes key into t, whose length is the arity.
func unpackKey(key uint64, t Tuple) {
	bits := packBits(len(t))
	if bits >= 63 {
		if len(t) == 1 {
			t[0] = int(key)
		}
		return
	}
	mask := uint64(1)<<bits - 1
	for i := len(t) - 1; i >= 0; i-- {
		t[i] = int(key & mask)
		key >>= bits
	}
}

// SpillKey returns the byte-string fallback encoding of t — the key of
// the spill map — as a fresh byte slice.  Together with DecodeSpillKey
// it is the wire form of tuples that do not pack: 4 bytes per element
// big-endian when every element fits a uint32, 8 bytes otherwise, so
// the length alone (relative to the arity) selects the width.
func SpillKey(t Tuple) []byte { return []byte(spillKey(t)) }

// DecodeSpillKey inverts SpillKey for the given arity.  It reports
// false when the byte length matches neither the 4- nor the
// 8-byte-per-element width (or arity 0 with non-empty bytes).
func DecodeSpillKey(b []byte, arity int) (Tuple, bool) {
	if arity < 0 {
		return nil, false
	}
	switch {
	case len(b) == 4*arity && (arity > 0 || len(b) == 0):
		t := make(Tuple, arity)
		for i := range t {
			t[i] = int(binary.BigEndian.Uint32(b[4*i:]))
		}
		return t, true
	case arity > 0 && len(b) == 8*arity:
		t := make(Tuple, arity)
		for i := range t {
			v := binary.BigEndian.Uint64(b[8*i:])
			t[i] = int(v)
			if uint64(t[i]) != v {
				return nil, false // overflows this platform's int
			}
		}
		return t, true
	}
	return nil, false
}

// spillKey returns the byte-string fallback key for tuples that do not
// pack into a uint64.
func spillKey(t Tuple) string {
	wide := false
	for _, v := range t {
		if v < 0 || uint64(v) > 0xFFFFFFFF {
			wide = true
			break
		}
	}
	if wide {
		buf := make([]byte, 8*len(t))
		for i, v := range t {
			binary.BigEndian.PutUint64(buf[8*i:], uint64(v))
		}
		return string(buf)
	}
	buf := make([]byte, 4*len(t))
	for i, v := range t {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}
