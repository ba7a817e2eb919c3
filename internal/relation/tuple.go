package relation

import "strconv"

// Tuple is a fixed-arity sequence of universe ids.  A relation copies
// the ids of a tuple it is handed, so callers keep their slice.  A tuple
// read from a relation (At, Each, Tuples) is a view of the relation's
// arena: callers must not write to it, and it is valid until that
// relation is next removed from — a Remove moves the last tuple into
// the vacated slot — and forever when read from a snapshot.  Appends
// never disturb it.  Copy it with Clone to write to it or keep it
// longer.
type Tuple []int

// Key returns a compact string encoding of the tuple, usable as a map
// key.  Two tuples have equal keys iff they are equal element-wise.
func (t Tuple) Key() string {
	// Variable-length encoding with a separator keeps keys unambiguous
	// for any universe size; strconv avoids fmt overhead on hot paths.
	buf := make([]byte, 0, len(t)*4)
	for _, v := range t {
		buf = strconv.AppendInt(buf, int64(v), 36)
		buf = append(buf, '|')
	}
	return string(buf)
}

// Compare orders tuples first by length, then lexicographically by
// element.  It returns -1, 0, or +1.
func (t Tuple) Compare(o Tuple) int {
	if len(t) != len(o) {
		if len(t) < len(o) {
			return -1
		}
		return 1
	}
	for i := range t {
		switch {
		case t[i] < o[i]:
			return -1
		case t[i] > o[i]:
			return 1
		}
	}
	return 0
}

// String formats the tuple's raw ids, e.g. "(0,3,1)".  For named output
// use Relation.Format with a Universe.
func (t Tuple) String() string {
	buf := make([]byte, 0, len(t)*4+2)
	buf = append(buf, '(')
	for i, v := range t {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	buf = append(buf, ')')
	return string(buf)
}
