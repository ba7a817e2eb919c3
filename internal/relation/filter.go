// filter.go — a blocked Bloom filter over tuple hashes.
//
// The partitioned evaluator's exchange path (internal/partition) fronts
// the exact accumulated-state membership probe with an approximate one:
// a Filter summarizing every tuple the accumulated state holds.  The
// probe direction is chosen so approximation can never lose a tuple —
// "definitely absent" skips the exact hash-map probe entirely (the
// tuple is surely new), while "maybe present" falls through to the
// exact AddNotIn probe, which drops duplicates exactly.  A false
// positive therefore costs one redundant map probe; it can never cause
// a genuinely-new tuple to be dropped, which is what a filter used in
// the opposite direction (drop on "maybe present") would risk.
//
// The layout is the classic split-block scheme: the filter is an array
// of 512-bit blocks (eight uint64 words, one cache line); a tuple maps
// to one block and sets one bit in each of the block's eight words.
// Every probe touches a single cache line regardless of the number of
// hash functions.  All bit positions derive from the one TupleHash the
// caller has already computed for partition routing, so the filter adds
// no hashing to the emit path.
//
// Concurrency: Filter has the plain map contract — any number of
// concurrent readers, or one writer with no readers.  The partitioned
// fixpoint driver only mutates filters between barrier-separated
// rounds, on the coordinator.
package relation

// filterWordsPerBlock is the block size in uint64 words: 8 words = 512
// bits = one cache line, probed with one bit per word.
const filterWordsPerBlock = 8

// filterBitsPerTuple sizes the filter: ~16 bits per expected tuple
// keeps the false-positive rate of the 8-probe split-block scheme well
// under 1%.
const filterBitsPerTuple = 16

// Filter is a blocked Bloom filter keyed by TupleHash.  The zero value
// is not usable; construct with NewFilter or FilterOf.
type Filter struct {
	words   []uint64
	nblk    uint64 // number of blocks, always a power of two
	n       int    // tuples added
	fillCap int    // sizing capacity; past it the FP rate degrades
}

// NewFilter returns a filter sized for the given expected number of
// tuples.
func NewFilter(capacity int) *Filter {
	if capacity < 256 {
		capacity = 256
	}
	blocks := uint64(1)
	want := uint64(capacity) * filterBitsPerTuple / (64 * filterWordsPerBlock)
	for blocks < want {
		blocks <<= 1
	}
	return &Filter{
		words:   make([]uint64, blocks*filterWordsPerBlock),
		nblk:    blocks,
		fillCap: capacity,
	}
}

// FilterOf builds a filter over every tuple of r, sized for the
// relation plus the expected headroom.
func FilterOf(r *Relation, headroom int) *Filter {
	f := NewFilter(r.Len() + headroom)
	r.Each(func(t Tuple) bool {
		f.AddHash(TupleHash(t))
		return true
	})
	return f
}

// blockBase maps a hash to its block's first word.  The block selector
// remixes the hash so it stays independent of the probe bits (which use
// the low 48 bits directly).
func (f *Filter) blockBase(h uint64) uint64 {
	return (((h * 0x9e3779b97f4a7c15) >> 16) & (f.nblk - 1)) * filterWordsPerBlock
}

// AddHash records a tuple by its TupleHash.
func (f *Filter) AddHash(h uint64) {
	base := f.blockBase(h)
	for i := uint64(0); i < filterWordsPerBlock; i++ {
		f.words[base+i] |= 1 << ((h >> (6 * i)) & 63)
	}
	f.n++
}

// Add records a tuple.
func (f *Filter) Add(t Tuple) { f.AddHash(TupleHash(t)) }

// MayContainHash reports whether a tuple with this hash may have been
// added.  False is definitive: no added tuple has this hash.  True is
// approximate and must be confirmed by an exact probe.
func (f *Filter) MayContainHash(h uint64) bool {
	base := f.blockBase(h)
	for i := uint64(0); i < filterWordsPerBlock; i++ {
		if f.words[base+i]&(1<<((h>>(6*i))&63)) == 0 {
			return false
		}
	}
	return true
}

// MayContain is MayContainHash over a tuple.
func (f *Filter) MayContain(t Tuple) bool { return f.MayContainHash(TupleHash(t)) }

// Len returns the number of tuples added.
func (f *Filter) Len() int { return f.n }

// Overloaded reports whether the filter holds more tuples than it was
// sized for, i.e. its false-positive rate is degrading and the owner
// should rebuild it larger (see FilterOf).
func (f *Filter) Overloaded() bool { return f.n > f.fillCap }
