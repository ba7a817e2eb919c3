package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestUniverseIntern(t *testing.T) {
	u := NewUniverse()
	a := u.Intern("a")
	b := u.Intern("b")
	if a == b {
		t.Fatalf("distinct names interned to same id %d", a)
	}
	if got := u.Intern("a"); got != a {
		t.Errorf("re-intern a = %d, want %d", got, a)
	}
	if u.Size() != 2 {
		t.Errorf("Size = %d, want 2", u.Size())
	}
	if u.Name(a) != "a" || u.Name(b) != "b" {
		t.Errorf("Name round-trip failed: %q %q", u.Name(a), u.Name(b))
	}
	if _, ok := u.Lookup("c"); ok {
		t.Error("Lookup of absent name succeeded")
	}
	if id, ok := u.Lookup("b"); !ok || id != b {
		t.Errorf("Lookup(b) = %d,%v", id, ok)
	}
}

func TestUniverseElements(t *testing.T) {
	u := NewUniverse()
	for _, s := range []string{"x", "y", "z"} {
		u.Intern(s)
	}
	el := u.Elements()
	if len(el) != 3 {
		t.Fatalf("Elements len = %d", len(el))
	}
	for i, v := range el {
		if v != i {
			t.Errorf("Elements[%d] = %d", i, v)
		}
	}
}

func TestUniverseClone(t *testing.T) {
	u := NewUniverse()
	u.Intern("a")
	c := u.Clone()
	c.Intern("b")
	if u.Size() != 1 || c.Size() != 2 {
		t.Errorf("clone not independent: %d %d", u.Size(), c.Size())
	}
}

func TestUniverseNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name(-1) did not panic")
		}
	}()
	NewUniverse().Name(-1)
}

func TestTupleKeyUnambiguous(t *testing.T) {
	// (1,23) and (12,3) must not collide.
	a := Tuple{1, 23}
	b := Tuple{12, 3}
	if a.Key() == b.Key() {
		t.Fatalf("key collision: %q", a.Key())
	}
	// Large values.
	c := Tuple{1 << 20, 0}
	d := Tuple{0, 1 << 20}
	if c.Key() == d.Key() {
		t.Fatalf("key collision on large values")
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{}, Tuple{}, 0},
		{Tuple{1}, Tuple{1}, 0},
		{Tuple{1}, Tuple{2}, -1},
		{Tuple{2}, Tuple{1}, 1},
		{Tuple{1, 2}, Tuple{1, 3}, -1},
		{Tuple{1}, Tuple{1, 0}, -1},
		{Tuple{5, 5}, Tuple{5}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationAddHasRemove(t *testing.T) {
	r := New(2)
	if !r.Add(Tuple{0, 1}) {
		t.Error("first Add returned false")
	}
	if r.Add(Tuple{0, 1}) {
		t.Error("duplicate Add returned true")
	}
	if !r.Has(Tuple{0, 1}) {
		t.Error("Has failed after Add")
	}
	if r.Has(Tuple{1, 0}) {
		t.Error("Has on absent tuple")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Remove(Tuple{0, 1}) || r.Len() != 0 {
		t.Error("Remove failed")
	}
	if r.Remove(Tuple{0, 1}) {
		t.Error("Remove of absent tuple returned true")
	}
}

func TestRelationArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong arity did not panic")
		}
	}()
	New(2).Add(Tuple{1})
}

func TestRelationAddClonesInput(t *testing.T) {
	r := New(2)
	tu := Tuple{3, 4}
	r.Add(tu)
	tu[0] = 99
	if !r.Has(Tuple{3, 4}) {
		t.Error("relation was affected by caller mutation of added tuple")
	}
}

func TestRelationTuplesSorted(t *testing.T) {
	r := New(1)
	for _, v := range []int{5, 1, 3, 2, 4} {
		r.Add(Tuple{v})
	}
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			t.Fatalf("Tuples not sorted: %v", ts)
		}
	}
}

// fromTuples builds a relation of the given arity from tuples.
func fromTuples(arity int, tuples []Tuple) *Relation {
	r := New(arity)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// union returns a fresh relation with the tuples of both a and b.
func union(a, b *Relation) *Relation {
	c := a.Clone()
	c.UnionWith(b)
	return c
}

func TestRelationSetOps(t *testing.T) {
	a := fromTuples(1, []Tuple{{1}, {2}, {3}})
	b := fromTuples(1, []Tuple{{2}, {3}, {4}})

	if got := union(a, b); got.Len() != 4 {
		t.Errorf("Union len = %d", got.Len())
	}
	if got := a.Intersect(b); got.Len() != 2 || !got.Has(Tuple{2}) || !got.Has(Tuple{3}) {
		t.Errorf("Intersect = %v", got.Tuples())
	}
	if got := a.Diff(b); got.Len() != 1 || !got.Has(Tuple{1}) {
		t.Errorf("Diff = %v", got.Tuples())
	}
	if !a.Intersect(b).SubsetOf(a) || !a.Intersect(b).SubsetOf(b) {
		t.Error("intersection not a subset of operands")
	}
	if a.Equal(b) {
		t.Error("unequal relations reported Equal")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestRelationUnionWithCount(t *testing.T) {
	a := fromTuples(1, []Tuple{{1}, {2}})
	b := fromTuples(1, []Tuple{{2}, {3}})
	if got := a.UnionWith(b); got != 1 {
		t.Errorf("UnionWith added %d, want 1", got)
	}
	if a.Len() != 3 {
		t.Errorf("post-union Len = %d", a.Len())
	}
}

func TestRelationIndex(t *testing.T) {
	r := fromTuples(2, []Tuple{{1, 2}, {1, 3}, {2, 3}})
	if got := len(r.Lookup(0, 1)); got != 2 {
		t.Errorf("Lookup(0,1) = %d entries", got)
	}
	if got := len(r.Lookup(0, 2)); got != 1 {
		t.Errorf("Lookup(0,2) = %d entries", got)
	}
	if got := len(r.Lookup(1, 3)); got != 2 {
		t.Errorf("Lookup(1,3) = %d entries", got)
	}
	// Mutation invalidates the cache.
	r.Add(Tuple{1, 9})
	if got := len(r.Lookup(0, 1)); got != 3 {
		t.Errorf("stale index after Add: %d", got)
	}
}

func TestRelationZeroArity(t *testing.T) {
	r := New(0)
	if !r.Empty() {
		t.Error("fresh 0-ary relation not empty")
	}
	r.Add(Tuple{})
	if r.Len() != 1 || !r.Has(Tuple{}) {
		t.Error("0-ary relation does not hold empty tuple")
	}
	if r.Add(Tuple{}) {
		t.Error("duplicate empty tuple added")
	}
}

func TestFull(t *testing.T) {
	r := Full(2, 3)
	if r.Len() != 9 {
		t.Errorf("Full(2,3) len = %d, want 9", r.Len())
	}
	if !r.Has(Tuple{2, 2}) || !r.Has(Tuple{0, 0}) {
		t.Error("Full missing corner tuples")
	}
	if got := Full(0, 5); got.Len() != 1 {
		t.Errorf("Full(0,5) len = %d, want 1", got.Len())
	}
	if got := Full(3, 1); got.Len() != 1 {
		t.Errorf("Full(3,1) len = %d, want 1", got.Len())
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	if err := db.AddFact("E", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFact("E", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFact("E", "a", "b"); err != nil {
		t.Fatal(err) // duplicate is fine
	}
	e := db.Relation("E")
	if e == nil || e.Len() != 2 {
		t.Fatalf("E = %v", e)
	}
	if db.Universe().Size() != 3 {
		t.Errorf("universe size = %d, want 3", db.Universe().Size())
	}
	if _, err := db.Ensure("E", 3); err == nil {
		t.Error("Ensure with conflicting arity did not error")
	}
	if db.Relation("missing") != nil {
		t.Error("missing relation not nil")
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	db.AddFact("E", "a", "b")
	c := db.Clone()
	c.AddFact("E", "x", "y")
	if db.Relation("E").Len() != 1 {
		t.Error("clone mutation leaked into original")
	}
	if c.Relation("E").Len() != 2 {
		t.Error("clone missing added fact")
	}
	if c.Universe().Size() != 4 {
		t.Errorf("clone universe size = %d", c.Universe().Size())
	}
}

func TestDatabaseString(t *testing.T) {
	db := NewDatabase()
	db.AddFact("E", "a", "b")
	db.AddFact("V", "a")
	s := db.String()
	want := "E/2 = {(a,b)}\nV/1 = {(a)}\n"
	if s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}

// randomRelation builds a pseudo-random unary relation over [0,n) from a
// seed, for property tests.
func randomRelation(seed int64, n int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New(1)
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			r.Add(Tuple{v})
		}
	}
	return r
}

func TestPropSetAlgebraLaws(t *testing.T) {
	// Union/Intersect/Diff obey the standard Boolean-algebra laws.
	f := func(sa, sb, sc int64) bool {
		const n = 12
		a := randomRelation(sa, n)
		b := randomRelation(sb, n)
		c := randomRelation(sc, n)
		if !union(a, b).Equal(union(b, a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !union(a, union(b, c)).Equal(union(union(a, b), c)) {
			return false
		}
		if !a.Intersect(b.Intersect(c)).Equal(a.Intersect(b).Intersect(c)) {
			return false
		}
		// Distributivity.
		if !a.Intersect(union(b, c)).Equal(union(a.Intersect(b), a.Intersect(c))) {
			return false
		}
		// Diff identities.
		if !union(a.Diff(b), a.Intersect(b)).Equal(a) {
			return false
		}
		if !a.Diff(a).Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropIndexConsistent(t *testing.T) {
	// Every tuple reachable through every column index; index totals
	// match relation size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(2)
		for i := 0; i < 30; i++ {
			r.Add(Tuple{rng.Intn(6), rng.Intn(6)})
		}
		for col := 0; col < 2; col++ {
			total := 0
			for v := 0; v < 6; v++ {
				for _, off := range r.Lookup(col, v) {
					tu := r.At(off)
					if tu[col] != v {
						return false
					}
					if !r.Has(tu) {
						return false
					}
					total++
				}
			}
			if total != r.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropTupleKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = int(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = int(v)
		}
		return (ta.Key() == tb.Key()) == slices.Equal(ta, tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
