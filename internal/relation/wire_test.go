package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPackUnpackRoundTrip checks UnpackKey inverts PackKey for every
// arity the packed path covers, at the edges of each element width.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for arity := 0; arity <= 8; arity++ {
		limit := packedCapacity(arity)
		if limit == 0 {
			limit = 1 << 31 // "unbounded": sample a large range
		}
		for trial := 0; trial < 200; trial++ {
			tup := make(Tuple, arity)
			for i := range tup {
				switch trial % 3 {
				case 0:
					tup[i] = rng.Intn(limit)
				case 1:
					tup[i] = limit - 1 // max representable element
				default:
					tup[i] = 0
				}
			}
			k, ok := PackKey(tup)
			if !ok {
				t.Fatalf("arity %d tuple %v should pack (limit %d)", arity, tup, limit)
			}
			if got := UnpackKey(k, arity); !slices.Equal(got, tup) {
				t.Fatalf("UnpackKey(PackKey(%v)) = %v", tup, got)
			}
		}
	}
}

// TestPackKeyRejectsOverflow pins the spill boundary: the first id past
// the per-arity capacity must not pack.
func TestPackKeyRejectsOverflow(t *testing.T) {
	for arity := 2; arity <= 6; arity++ {
		limit := packedCapacity(arity)
		if limit == 0 {
			continue
		}
		tup := make(Tuple, arity)
		tup[arity-1] = limit
		if _, ok := PackKey(tup); ok {
			t.Errorf("arity %d: element %d packed past capacity", arity, limit)
		}
	}
}

// TestSpillKeyRoundTrip covers both spill widths: 4-byte (elements fit
// uint32) and 8-byte (wide elements).
func TestSpillKeyRoundTrip(t *testing.T) {
	cases := []Tuple{
		{1 << 22, 1, 2},             // arity 3 element past the 21-bit width
		{0xFFFFFFFF, 1, 0},          // largest element of the 4-byte width
		{1 << 33, 2, 3},             // wide element → 8-byte width
		{1 << 10, 9, 9, 9, 9, 9, 9}, // arity 7 (9 bits/element): 1<<10 spills
	}
	for _, tup := range cases {
		if _, ok := PackKey(tup); ok {
			t.Fatalf("test tuple %v unexpectedly packs", tup)
		}
		b := SpillKey(tup)
		got, ok := DecodeSpillKey(b, len(tup))
		if !ok || !slices.Equal(got, tup) {
			t.Errorf("DecodeSpillKey(SpillKey(%v)) = %v, %v", tup, got, ok)
		}
	}
	if _, ok := DecodeSpillKey([]byte{1, 2, 3}, 17); ok {
		t.Error("DecodeSpillKey accepted a length matching neither width")
	}
	if got, ok := DecodeSpillKey(nil, 0); !ok || len(got) != 0 {
		t.Errorf("DecodeSpillKey(nil, 0) = %v, %v", got, ok)
	}
}

// TestPrefix checks prefix views: exact membership at the cut, later
// appends invisible, and safe deep-copying.
func TestPrefix(t *testing.T) {
	r := New(2)
	tuples := []Tuple{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	for _, tup := range tuples {
		r.Add(tup)
	}
	p := r.prefix(2)
	if p.Len() != 2 {
		t.Fatalf("prefix Len = %d, want 2", p.Len())
	}
	if !p.Has(Tuple{0, 1}) || !p.Has(Tuple{1, 2}) {
		t.Error("prefix lost a covered tuple")
	}
	if p.Has(Tuple{2, 3}) {
		t.Error("prefix sees a tuple past the cut")
	}
	// Appends to the live relation stay invisible to the view.
	r.Add(Tuple{4, 5})
	if p.Len() != 2 || p.Has(Tuple{4, 5}) {
		t.Error("prefix sees post-view appends")
	}
	// A clone of the view is exact and independent.
	c := p.Clone()
	if c.Len() != 2 || !c.Has(Tuple{1, 2}) || c.Has(Tuple{2, 3}) {
		t.Error("prefix clone drifted from the view")
	}
	c.Add(Tuple{9, 9})
	if p.Has(Tuple{9, 9}) {
		t.Error("mutating the clone leaked into the view")
	}
	// A Remove on the live relation detaches; the view keeps the old
	// storage.
	r.Remove(Tuple{0, 1})
	if !p.Has(Tuple{0, 1}) {
		t.Error("prefix lost a tuple to a post-view Remove")
	}
	// Full-length and zero-length prefixes are the boundary cases.
	if full := r.prefix(r.Len()); full.Len() != r.Len() {
		t.Errorf("full prefix Len = %d, want %d", full.Len(), r.Len())
	}
	if empty := r.prefix(0); empty.Len() != 0 || empty.Has(Tuple{1, 2}) {
		t.Error("empty prefix not empty")
	}
	// Prefix of a frozen view works and shares its storage.
	pp := p.prefix(1)
	if pp.Len() != 1 || !pp.Has(Tuple{0, 1}) || pp.Has(Tuple{1, 2}) {
		t.Error("prefix of a frozen view wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range prefix did not panic")
		}
	}()
	r.prefix(r.Len() + 1)
}
