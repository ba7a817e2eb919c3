package relation

// Multiset counts tuples: a set of tuples with a signed 64-bit count
// attached to each.  The incremental-maintenance layer uses it for
// derivation support counts — the number of distinct rule-body
// embeddings deriving a tuple — which inserts bump up and deletes bump
// down.  Counts may transiently be zero or negative while an update is
// being applied; entries are never removed, so offsets stay stable.
//
// A Multiset is not safe for concurrent mutation; evaluation workers
// each fill a private one and merge them afterwards (see MergeFrom).
type Multiset struct {
	rel    *Relation
	counts []int64 // parallel to rel's arena
}

// NewMultiset returns an empty multiset over tuples of the given arity.
func NewMultiset(arity int) *Multiset {
	return &Multiset{rel: New(arity)}
}

// Arity returns the tuple arity.
func (m *Multiset) Arity() int { return m.rel.Arity() }

// Len returns the number of distinct tuples ever bumped (including
// those whose count has returned to zero).
func (m *Multiset) Len() int { return m.rel.Len() }

// Bump adds n to t's count, inserting t with count n if absent.
func (m *Multiset) Bump(t Tuple, n int64) {
	if off := m.rel.offsetOf(t); off >= 0 {
		m.counts[off] += n
		return
	}
	m.rel.Add(t)
	m.counts = append(m.counts, n)
}

// Count returns t's count (0 if absent).
func (m *Multiset) Count(t Tuple) int64 {
	if off := m.rel.offsetOf(t); off >= 0 {
		return m.counts[off]
	}
	return 0
}

// Each calls f for every tuple ever bumped, in insertion order, until f
// returns false.  Entries with zero count are included.
func (m *Multiset) Each(f func(Tuple, int64) bool) {
	for off, n := range m.counts {
		if !f(m.rel.At(int32(off)), n) {
			return
		}
	}
}

// MergeFrom adds every count of o into m.
func (m *Multiset) MergeFrom(o *Multiset) {
	o.Each(func(t Tuple, n int64) bool {
		m.Bump(t, n)
		return true
	})
}
