package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Index differential under mutation and sharing.
//
// Indexes are extended after appends, patched by Remove, dropped by a
// large RemoveAll, handed to snapshot and prefix views, and copied
// before a patch once a view holds them.  Whatever the history, every
// probe on the live relation and on every view still held must equal a
// plain scan of that relation's tuples, buckets ascending.

// scanIndexes checks Lookup, LookupCols on every column subset and
// Distinct of r against a scan.  With pick non-nil only one random
// column subset is probed, so that the others fall behind and are
// patched or extended from a stale coverage later.
func scanIndexes(r *Relation, pick *rand.Rand) error {
	masks := make([]int, 0, 1<<r.Arity())
	for mask := 1; mask < 1<<r.Arity(); mask++ {
		masks = append(masks, mask)
	}
	if pick != nil && len(masks) > 0 {
		masks = []int{masks[pick.Intn(len(masks))]}
	}
	for _, mask := range masks {
		var cols []int
		for c := 0; c < r.Arity(); c++ {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		want := map[string][]int32{}
		vals := map[string][]int{}
		for off := int32(0); off < int32(r.Len()); off++ {
			proj := make([]int, len(cols))
			for i, c := range cols {
				proj[i] = r.At(off)[c]
			}
			k := fmt.Sprint(proj)
			want[k] = append(want[k], off)
			vals[k] = proj
		}
		for k, offs := range want {
			if got := r.LookupCols(cols, vals[k]); !sameOffsets(got, offs) {
				return fmt.Errorf("LookupCols(%v, %v) = %v, scan says %v", cols, vals[k], got, offs)
			}
			if len(cols) == 1 {
				if got := r.Lookup(cols[0], vals[k][0]); !sameOffsets(got, offs) {
					return fmt.Errorf("Lookup(%d, %d) = %v, scan says %v", cols[0], vals[k][0], got, offs)
				}
			}
		}
		absent := make([]int, len(cols))
		for i := range absent {
			absent[i] = 1 << 20
		}
		if got := r.LookupCols(cols, absent); len(got) != 0 {
			return fmt.Errorf("LookupCols(%v, absent) = %v", cols, got)
		}
		if len(cols) == 1 {
			if got := r.Distinct(cols[0]); got != len(want) {
				return fmt.Errorf("Distinct(%d) = %d, scan says %d", cols[0], got, len(want))
			}
		}
	}
	return nil
}

// heldView is a view with the tuples it must keep showing.
type heldView struct {
	rel  *Relation
	want []Tuple
}

func (v *heldView) check(pick *rand.Rand) error {
	if v.rel.Len() != len(v.want) {
		return fmt.Errorf("view has %d tuples, was taken at %d", v.rel.Len(), len(v.want))
	}
	for off, t := range v.want {
		if !slices.Equal(v.rel.At(int32(off)), t) {
			return fmt.Errorf("view offset %d holds %v, was taken with %v", off, v.rel.At(int32(off)), t)
		}
	}
	return scanIndexes(v.rel, pick)
}

func hold(r *Relation) *heldView {
	v := &heldView{rel: r}
	r.Each(func(t Tuple) bool { v.want = append(v.want, t); return true })
	return v
}

// randomTuple draws from a small domain; on arity 3 an occasional id is
// too wide for the packed key, so projections spill.
func randomTuple(rng *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = rng.Intn(5)
		if arity == 3 && rng.Intn(16) == 0 {
			t[i] += 1 << 40
		}
	}
	return t
}

func TestIndexDifferential(t *testing.T) {
	for arity := 1; arity <= 3; arity++ {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*3 + int64(arity)))
			r := New(arity)
			var views []*heldView
			fail := func(step int, op string, err error) {
				t.Helper()
				t.Fatalf("arity %d seed %d step %d after %s: %v", arity, seed, step, op, err)
			}
			for step := 0; step < 400; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 9:
					op = "Add"
					r.Add(randomTuple(rng, arity))
				case k < 13 && r.Len() > 0:
					op = "Remove"
					if victim := r.At(int32(rng.Intn(r.Len()))); !r.Remove(victim) {
						fail(step, op, fmt.Errorf("%v was present", victim))
					}
				case k < 14:
					// A batch on either side of RemoveAll's patch-or-drop choice.
					op = "RemoveAll"
					batch := New(arity)
					for n := rng.Intn(1 + r.Len()/(1+rng.Intn(8))); n > 0; n-- {
						batch.Add(r.At(int32(rng.Intn(r.Len()))))
					}
					batch.Add(randomTuple(rng, arity))
					before := r.Len()
					if removed := r.RemoveAll(batch); before-removed != r.Len() || removed < batch.Len()-1 {
						fail(step, op, fmt.Errorf("removed %d of a batch of %d, length %d -> %d", removed, batch.Len(), before, r.Len()))
					}
				case k < 16:
					op = "Snapshot"
					views = append(views, hold(r.Snapshot()))
				case k < 17:
					op = "Seal"
					r.Seal()
				case k < 18:
					op = "Prefix"
					views = append(views, hold(r.prefix(rng.Intn(r.Len()+1))))
				case k < 19 && len(views) > 0:
					op = "Prefix of a view"
					v := views[rng.Intn(len(views))].rel
					views = append(views, hold(v.prefix(rng.Intn(v.Len()+1))))
				default:
					op = "probe"
				}
				if len(views) > 6 {
					i := rng.Intn(len(views))
					views = append(views[:i], views[i+1:]...)
				}
				if rng.Intn(2) == 0 {
					if err := scanIndexes(r, rng); err != nil {
						fail(step, op, err)
					}
				}
				for _, v := range views {
					if rng.Intn(3) == 0 {
						if err := v.check(rng); err != nil {
							fail(step, op, err)
						}
					}
				}
				if step%50 == 49 {
					if err := scanIndexes(r, nil); err != nil {
						fail(step, op, err)
					}
					for _, v := range views {
						if err := v.check(nil); err != nil {
							fail(step, op, err)
						}
					}
				}
			}
		}
	}
}

// TestIndexSharedWithSealedViews runs the writer of the daemon against
// its readers: one goroutine mutates the live relation, probes it (which
// extends index sets the views share) and publishes sealed views; two
// others probe each published view, and prefixes of it, while the
// writer carries on.  It belongs to the -race set.
func TestIndexSharedWithSealedViews(t *testing.T) {
	const arity = 2
	published := make(chan *heldView)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			// Keeps receiving after a failure, so the writer never blocks.
			for v := range published {
				for i := 0; i < 3 && !t.Failed(); i++ {
					if err := v.check(rng); err != nil {
						t.Errorf("reader %d: %v", g, err)
					} else if err := hold(v.rel.prefix(rng.Intn(v.rel.Len() + 1))).check(rng); err != nil {
						t.Errorf("reader %d, prefix: %v", g, err)
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(7))
	r := New(arity)
	for step := 0; step < 3000 && !t.Failed(); step++ {
		switch k := rng.Intn(10); {
		case k < 6:
			r.Add(Tuple{rng.Intn(12), rng.Intn(12)})
		case k < 8 && r.Len() > 0:
			r.Remove(r.At(int32(rng.Intn(r.Len()))))
		case k < 9:
			if err := scanIndexes(r, rng); err != nil {
				t.Fatalf("writer step %d: %v", step, err)
			}
		default:
			v := hold(r.Snapshot())
			r.Seal()
			published <- v
			published <- v // usually one to each reader: both extend what it inherited
		}
	}
	close(published)
	wg.Wait()
	if err := scanIndexes(r, nil); err != nil {
		t.Fatalf("writer, at the end: %v", err)
	}
}

// TestIndexGrowsInPlaceUnderProbes: the live relation extends the index
// sets it owns in place.  Rounds of exclusive mutation — appends, now
// and then a Remove, which makes the sets the relation's own again after
// a view took them — alternate with rounds in which four goroutines
// probe the live relation at once, each on one random column subset: one
// finds its index up to date and reads it without the lock while another
// extends a stale one under it.  Every few rounds a sealed view goes to
// two readers that keep probing it while the relation grows on.  It
// belongs to the -race set.
func TestIndexGrowsInPlaceUnderProbes(t *testing.T) {
	const arity = 3
	published := make(chan *heldView)
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for v := range published {
				for i := 0; i < 4 && !t.Failed(); i++ {
					if err := v.check(rng); err != nil {
						t.Errorf("view reader %d: %v", g, err)
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(11))
	r := New(arity)
	for round := 0; round < 300 && !t.Failed(); round++ {
		for n := 1 + rng.Intn(8); n > 0; n-- {
			tu := Tuple{rng.Intn(12), rng.Intn(12), rng.Intn(12)}
			if rng.Intn(16) == 0 {
				tu[rng.Intn(arity)] += 1 << 40 // too wide for the packed key: the projection spills
			}
			r.Add(tu)
		}
		if rng.Intn(6) == 0 {
			r.Remove(r.At(int32(rng.Intn(r.Len()))))
		}
		if rng.Intn(5) == 0 {
			v := hold(r.Snapshot())
			r.Seal()
			published <- v
			published <- v
		}
		var probers sync.WaitGroup
		for g := 0; g < 4; g++ {
			probers.Add(1)
			go func(seed int64) {
				defer probers.Done()
				if err := scanIndexes(r, rand.New(rand.NewSource(seed))); err != nil {
					t.Errorf("round %d, live relation: %v", round, err)
				}
			}(rng.Int63())
		}
		probers.Wait()
	}
	close(published)
	readers.Wait()
	if err := scanIndexes(r, nil); err != nil {
		t.Fatalf("at the end: %v", err)
	}
}
