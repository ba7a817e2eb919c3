package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRangeViewVsMap checks range views (Since) against a model of the
// insertion order.  Tuples are appended at random and views cut at
// random lengths in between, some of them views of views; indexes are
// probed through the views as the relation grows, so a view extends
// its relation's indexes.  After the last append every view must hold
// exactly the tuples appended within its range — Len, Each, Tuples,
// Has, OffsetOf, LookupCols, Equal and Clone — on both key-table
// layouts and on an arity whose tuples spill.  A Remove made after the
// views were taken detaches nothing: the relation keeps its key table.
func TestRangeViewVsMap(t *testing.T) {
	cases := []struct {
		name   string
		arity  int
		layout string
		tup    func(*rand.Rand) Tuple
	}{
		{"dense", 2, "dense", func(rng *rand.Rand) Tuple { return Tuple{rng.Intn(40), rng.Intn(40)} }},
		{"hash", 2, "hash", func(rng *rand.Rand) Tuple { return Tuple{rng.Intn(1 << 30), rng.Intn(8)} }},
		{"spill", 3, "", func(rng *rand.Rand) Tuple { return Tuple{1<<22 + rng.Intn(8), rng.Intn(30), rng.Intn(30)} }},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := New(tc.arity)
			var order []Tuple
			type cut struct {
				v      *Relation
				lo, hi int
			}
			var views []cut
			for op := 0; op < 1500; op++ {
				if tu := tc.tup(rng); r.Add(tu) {
					order = append(order, slices.Clone(tu))
				}
				if rng.Intn(40) == 0 {
					lo := rng.Intn(len(order) + 1)
					views = append(views, cut{r.Since(lo), lo, len(order)})
				}
				if rng.Intn(60) == 0 && len(views) > 0 {
					c := views[rng.Intn(len(views))]
					skip := rng.Intn(c.hi - c.lo + 1)
					views = append(views, cut{c.v.Since(skip), c.lo + skip, c.hi})
					c.v.LookupCols([]int{0}, []int{order[rng.Intn(len(order))][0]})
				}
			}
			if tc.layout != "" && layout(r.table) != tc.layout {
				t.Fatalf("%s: key table is %s", tc.name, layout(r.table))
			}
			for i, c := range views {
				if msg := checkRange(c.v, order, c.lo, c.hi); msg != "" {
					t.Fatalf("%s seed %d view %d [%d, %d): %s", tc.name, seed, i, c.lo, c.hi, msg)
				}
			}

			table := r.table
			r.Since(len(order) / 2)
			r.Remove(order[0])
			if r.table != table || r.owned != nil {
				t.Fatalf("%s seed %d: a Remove after a range view detached the storage", tc.name, seed)
			}
			r.Snapshot()
			if r.Remove(order[1]); r.owned == nil {
				t.Fatalf("%s seed %d: a Remove after a snapshot did not detach", tc.name, seed)
			}
		}
	}
}

// checkRange compares view v with the tuples order[lo:hi], the others
// of order being absent from it, and returns what differs, or "".
func checkRange(v *Relation, order []Tuple, lo, hi int) string {
	want := order[lo:hi]
	if v.Len() != len(want) || v.Empty() != (len(want) == 0) {
		return "Len/Empty"
	}
	i := 0
	v.Each(func(tu Tuple) bool {
		if i >= len(want) || !slices.Equal(tu, want[i]) {
			i = -1
			return false
		}
		i++
		return true
	})
	if i != len(want) {
		return "Each"
	}
	sorted := slices.Clone(want)
	slices.SortFunc(sorted, Tuple.Compare)
	if !slices.EqualFunc(v.Tuples(), sorted, slices.Equal) {
		return "Tuples"
	}
	model := New(v.Arity())
	for _, tu := range want {
		model.Add(tu)
	}
	for off, tu := range order {
		in := off >= lo && off < hi
		if v.Has(tu) != in {
			return "Has"
		}
		if got := v.OffsetOf(tu); in && got != int32(off) || !in && got != -1 {
			return "OffsetOf"
		}
		var wantOffs []int32
		for o := lo; o < hi; o++ {
			if order[o][0] == tu[0] && order[o][1] == tu[1] {
				wantOffs = append(wantOffs, int32(o))
			}
		}
		if got := v.LookupCols([]int{0, 1}, tu[:2]); !slices.Equal(got, wantOffs) {
			return "LookupCols"
		}
	}
	if !v.Equal(model) || !model.Equal(v) {
		return "Equal"
	}
	if c := v.Clone(); !c.Equal(model) || c.Add(order[0]) == model.Has(order[0]) {
		return "Clone"
	}
	return ""
}
