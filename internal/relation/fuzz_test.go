package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fuzzRelationSeeds are FuzzRelation's seeds.  Column bytes: width
// 2^(b%10) ids; b/10%4 places them at 0, at the top of the packed
// width, across its limit, or spread over it.
var fuzzRelationSeeds = [][]byte{
	// Arity 2 over a 32×32 box: a swept batch turns the table dense;
	// views are cut, then random adds and removes widen the box.
	{1, 5, 5, opAddBatch, 0, 50, 1, opSnapshot, 0, opSince, 0, 90, opAddBatch, 0, 40, 2,
		opTuples, 1, opRemove, 0, 3, 0, 0, opSeal, 0, opRemove, 0, 2, 1, 1, opLookupCols, 2, 1, 0, 0, 0,
		opClone, 1, opAddBatch, 2, 30, 4, opRemoveAll, 0, 1, opCheck, 0, opCheck, 2},
	// Arity 6 whose first column fills the top 512 ids below the
	// packing limit: the dense box widens against it.
	{5, 19, 0, 0, 0, 0, 0, opAddBatch, 0, 100, 2, opAdd, 0, 0, 0, 0, 0, 0, 0, opAddBatch, 0, 60, 6,
		opSnapshot, 0, opClone, 0, opAddBatch, 1, 30, 8, opRemove, 1, 5, 0, 0, 0, 0, 0, 0, opMutable, 1, opCheck, 2},
	// Arity 3 whose first column straddles the packing limit, so
	// half its tuples spill; AppendDisjoint from a range view.
	{2, 25, 5, 2, opAddBatch, 0, 20, 2, opAppendDisjoint, 0, 50, 3, 10, opSince, 0, 30,
		opLookupCols, 1, 1, 0, 0, 0, 0, opRemove, 0, 1, 0, 0, 0, opTuples, 0, opHas, 0, 1, 2, 3},
	// Arity 2 spread over the packed width: open addressing.
	{1, 37, 37, opAddBatch, 0, 60, 2, opSnapshot, 0, opSeal, 0, opRemove, 0, 4, 0, 0,
		opAddBatch, 0, 10, 4, opSince, 1, 7, opMutable, 2, opTuples, 2, opCheck, 1},
	// Arity 1 at the top of its width: any negative id spills.
	{0, 23, opAddBatch, 0, 10, 1, opSnapshot, 0, opRemoveAll, 0, 1, opAddBatch, 0, 10, 3, opTuples, 0},
}

// FuzzRelation decodes bytes into an arity, per-column id windows and a
// sequence of operations on a pool of relations and views, and checks
// every relation and every view still valid under its contract against
// a model: the tuples in arena order.  The operations are Add, Remove,
// RemoveAll, AppendDisjoint, Snapshot, Seal, Since, Clone, Mutable,
// LookupCols and Tuples (whose result is held and re-checked as long
// as At's would stay valid).  A live relation's model changes as the
// relation does (Remove moves the last tuple into the vacated slot); a
// view's is fixed when it is taken.  A snapshot stays valid forever, a
// range view (Since) and a held Tuples result of a live relation until
// that relation is next removed from.  Checks: Len, Span, Each (in arena
// order), Tuples (in Compare order, held results too), Has and OffsetOf
// of every model tuple and of absent ones, and LookupCols (the exact
// ascending offsets).
//
// Input: byte 0 picks the arity (1–6); the next arity bytes pick each
// column's ids — a window of 1 to 512 ids at 0, at the top of the
// packed width, straddling its limit (the upper half spills) or spread
// across the width — and the rest are operations, an opcode byte and
// its operands each.
func FuzzRelation(f *testing.F) {
	for _, seed := range fuzzRelationSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &fuzzHarness{in: data}
		h.run(t)
	})
}

// FuzzRelation's opcodes, in the order run's switch lists them.
const (
	opAdd = iota
	opAddBatch
	opRemove
	opRemoveAll
	opAppendDisjoint
	opSnapshot
	opSeal
	opSince
	opClone
	opMutable
	opLookupCols
	opTuples
	opCheck
	opHas
	numOps
)

// fuzzMaxOps and fuzzMaxLen bound one input's work.
const (
	fuzzMaxOps = 256
	fuzzMaxLen = 2048
)

// fuzzRel is one pool entry: a live relation or a view, with its model.
type fuzzRel struct {
	r        *Relation
	order    []Tuple        // the model: r's tuples in arena order
	pos      map[string]int // a live relation's model index by Tuple.Key
	live     bool
	dep      *fuzzRel // the live relation whose next removal ends this view, or nil
	held     []Tuple  // a Tuples result still valid, or nil
	heldWant []Tuple  // what it held when taken
}

type fuzzHarness struct {
	in     []byte
	at     int
	arity  int
	base   []uint64 // column j's ids are base[j] + x·stride[j], 0 ≤ x < width[j]
	stride []uint64
	width  []int
	pool   []*fuzzRel
	trace  []string
	added  func(r *Relation, t Tuple) // called after each Add that stores t, when set
}

func (h *fuzzHarness) next() int {
	if h.at >= len(h.in) {
		return 0
	}
	h.at++
	return int(h.in[h.at-1])
}

// columns decodes the arity and the id windows.
func (h *fuzzHarness) columns() {
	h.arity = 1 + h.next()%6
	lim := uint64(1) << min(packBits(h.arity), 63)
	for j := 0; j < h.arity; j++ {
		b := h.next()
		w := uint64(1) << (b % 10)
		base, stride := uint64(0), uint64(1)
		switch b / 10 % 4 {
		case 1:
			base = lim - w
		case 2:
			base = lim - w/2
		case 3:
			stride = lim / w
		}
		h.base, h.stride, h.width = append(h.base, base), append(h.stride, stride), append(h.width, int(w))
	}
}

// tuple returns the tuple whose column j is window position x(j).
func (h *fuzzHarness) tuple(x func(j int) int) Tuple {
	t := make(Tuple, h.arity)
	for j := range t {
		t[j] = int(h.base[j] + uint64(x(j)%h.width[j])*h.stride[j])
	}
	return t
}

// operandTuple reads one byte per column.
func (h *fuzzHarness) operandTuple() Tuple {
	return h.tuple(func(int) int { return h.next() })
}

// batch returns n tuples from a seeded generator: random window
// positions, or a run of consecutive positions in key order from a
// random start (the last column fastest), which fills a box.
func (h *fuzzHarness) batch(n int, seed int) []Tuple {
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]Tuple, n)
	if seed%2 == 0 {
		for i := range out {
			out[i] = h.tuple(func(j int) int { return rng.Intn(h.width[j]) })
		}
		return out
	}
	start := rng.Intn(1 << 20)
	for i := range out {
		x := start + i
		digits := make([]int, h.arity)
		for j := h.arity - 1; j >= 0; j-- {
			digits[j] = x % h.width[j]
			x /= h.width[j]
		}
		out[i] = h.tuple(func(j int) int { return digits[j] })
	}
	return out
}

// pick returns the pool entry an operand byte names; live restricts
// the choice to live relations, of which the pool always holds one.
func (h *fuzzHarness) pick(live bool) *fuzzRel {
	var c []*fuzzRel
	for _, e := range h.pool {
		if e.live || !live {
			c = append(c, e)
		}
	}
	return c[h.next()%len(c)]
}

// adopt adds e to the pool, replacing an entry of the same kind once
// the pool holds 4 live relations or 8 views.
func (h *fuzzHarness) adopt(e *fuzzRel) {
	if e.live {
		e.pos = make(map[string]int, len(e.order))
		for i, t := range e.order {
			e.pos[t.Key()] = i
		}
	}
	var same []int
	for i, x := range h.pool {
		if x.live == e.live {
			same = append(same, i)
		}
	}
	if e.live && len(same) >= 4 || !e.live && len(same) >= 8 {
		h.pool[same[h.next()%len(same)]] = e
		return
	}
	h.pool = append(h.pool, e)
}

// view returns the pool entry for a view v whose model is order and
// whose validity ends with dep's next removal (never, if nil).
func view(v *Relation, order []Tuple, dep *fuzzRel) *fuzzRel {
	return &fuzzRel{r: v, order: slices.Clone(order), dep: dep}
}

// add applies Add to a live entry and its model.
func (h *fuzzHarness) add(t *testing.T, e *fuzzRel, tu Tuple) {
	k := tu.Key()
	_, had := e.pos[k]
	if got := e.r.Add(tu); got == had {
		h.fail(t, "Add(%v) = %v with the tuple present: %v", tu, got, had)
	}
	if !had {
		e.pos[k] = len(e.order)
		e.order = append(e.order, slices.Clone(tu))
		if h.added != nil {
			h.added(e.r, tu)
		}
	}
}

// removed applies the model side of a Remove that found tu.
func (h *fuzzHarness) removed(e *fuzzRel, tu Tuple) {
	k := tu.Key()
	j, last := e.pos[k], len(e.order)-1
	moved := e.order[last]
	e.order[j] = moved
	e.pos[moved.Key()] = j
	delete(e.pos, k)
	e.order = e.order[:last]
	e.held, e.heldWant = nil, nil
	// A removal ends e's range views.
	h.pool = slices.DeleteFunc(h.pool, func(x *fuzzRel) bool { return x.dep == e })
}

// diff describes the first difference between two tuple lists.
func diff(got, want []Tuple) string {
	i := 0
	for i < min(len(got), len(want)) && slices.Equal(got[i], want[i]) {
		i++
	}
	at := func(ts []Tuple) any {
		if i < len(ts) {
			return ts[i]
		}
		return "the end"
	}
	return fmt.Sprintf("%d tuples, want %d; at %d: %v, want %v", len(got), len(want), i, at(got), at(want))
}

func (h *fuzzHarness) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Fatalf("arity %d, windows base %v stride %v width %v, after %v: %s", h.arity, h.base, h.stride, h.width, h.trace, fmt.Sprintf(format, args...))
}

func (h *fuzzHarness) run(t *testing.T) {
	h.columns()
	h.pool = []*fuzzRel{{r: New(h.arity), pos: map[string]int{}, live: true}}
	for ops := 0; ops < fuzzMaxOps && h.at < len(h.in); ops++ {
		op := h.next() % numOps
		h.trace = append(h.trace, fmt.Sprint(op))
		switch op {
		case opAdd:
			e, tu := h.pick(true), h.operandTuple()
			if len(e.order) < fuzzMaxLen {
				h.add(t, e, tu)
			}
		case opAddBatch:
			e, n, seed := h.pick(true), 4*(h.next()+1), h.next()
			for _, tu := range h.batch(min(n, fuzzMaxLen-len(e.order)), seed) {
				h.add(t, e, tu)
			}
		case opRemove: // Remove a model tuple, the arena's view of one, or an operand tuple
			e, b := h.pick(true), h.next()
			tu := h.operandTuple()
			if b%3 != 0 && len(e.order) > 0 {
				tu = e.order[b/3%len(e.order)]
			}
			if b%3 == 2 && len(e.order) > 0 {
				lo, _ := e.r.Span()
				tu = e.r.At(lo + int32(b/3%len(e.order)))
			}
			model := slices.Clone(tu)
			_, had := e.pos[model.Key()]
			if got := e.r.Remove(tu); got != had {
				h.fail(t, "Remove(%v) = %v with the tuple present: %v", model, got, had)
			}
			if had {
				h.removed(e, model)
			}
		case opRemoveAll: // RemoveAll of any entry that stays valid throughout
			e, src := h.pick(true), h.pick(false)
			if src == e || src.dep == e {
				break
			}
			want := 0
			for _, tu := range src.order {
				if _, ok := e.pos[tu.Key()]; ok {
					want++
					h.removed(e, tu)
				}
			}
			if got := e.r.RemoveAll(src.r); got != want {
				h.fail(t, "RemoveAll removed %d, want %d", got, want)
			}
		case opAppendDisjoint: // AppendDisjoint of fresh tuples, whole or from a range view
			e, n, seed, cut := h.pick(true), h.next()+1, h.next(), h.next()
			d := &fuzzRel{r: New(h.arity), pos: map[string]int{}, live: true}
			for _, tu := range h.batch(min(n, fuzzMaxLen-len(e.order)), seed) {
				if _, in := e.pos[tu.Key()]; !in {
					h.add(t, d, tu)
				}
			}
			lo := cut % (len(d.order) + 1)
			e.r.AppendDisjoint(d.r.Since(lo))
			for _, tu := range d.order[lo:] {
				e.pos[tu.Key()] = len(e.order)
				e.order = append(e.order, tu)
			}
		case opSnapshot:
			e := h.pick(false)
			v := e.r.Snapshot()
			if !e.live {
				if v != e.r {
					h.fail(t, "Snapshot of a view is a new relation")
				}
				break
			}
			h.adopt(view(v, e.order, nil))
		case opSeal:
			h.pick(false).r.Seal()
		case opSince:
			e, b := h.pick(false), h.next()
			lo := b % (len(e.order) + 1)
			dep := e.dep
			if e.live {
				dep = e
			}
			h.adopt(view(e.r.Since(lo), e.order[lo:], dep))
		case opClone:
			e := h.pick(false)
			c := e.r.Clone()
			if c == e.r {
				h.fail(t, "Clone returned its receiver")
			}
			h.adopt(&fuzzRel{r: c, order: slices.Clone(e.order), live: true})
		case opMutable:
			e := h.pick(false)
			m := e.r.Mutable()
			if (m == e.r) != e.live {
				h.fail(t, "Mutable of a live relation: %v; returned its receiver: %v", e.live, m == e.r)
			}
			if !e.live {
				h.adopt(&fuzzRel{r: m, order: slices.Clone(e.order), live: true})
			}
		case opLookupCols:
			e, mask, b := h.pick(false), h.next(), h.next()
			tu := h.operandTuple()
			if b%2 == 0 && len(e.order) > 0 {
				tu = e.order[b/2%len(e.order)]
			}
			h.lookup(t, e, mask, tu)
		case opTuples: // held, and re-checked by every check of e
			e := h.pick(false)
			e.held, e.heldWant = e.r.Tuples(), h.sorted(e.order)
			h.check(t, e)
		case opCheck:
			h.check(t, h.pick(false))
		case opHas:
			e := h.pick(false)
			tu := h.operandTuple()
			_, in := slices.BinarySearchFunc(h.sorted(e.order), tu, Tuple.Compare)
			if e.r.Has(tu) != in {
				h.fail(t, "Has(%v) = %v, model %v", tu, !in, in)
			}
		}
		for _, e := range h.pool {
			if e.r.Len() != len(e.order) {
				h.fail(t, "Len = %d, model %d", e.r.Len(), len(e.order))
			}
		}
	}
	for _, e := range h.pool {
		h.check(t, e)
	}
}

func (h *fuzzHarness) sorted(order []Tuple) []Tuple {
	s := slices.Clone(order)
	slices.SortFunc(s, Tuple.Compare)
	return s
}

// lookup checks LookupCols on the columns an operand byte's bits pick,
// with tu's values in them, against a scan of the model.
func (h *fuzzHarness) lookup(t *testing.T, e *fuzzRel, mask int, tu Tuple) {
	m := mask & (1<<h.arity - 1)
	if m == 0 {
		m = 1 << (mask % h.arity)
	}
	var cols, vals []int
	for j := 0; j < h.arity; j++ {
		if m>>j&1 != 0 {
			cols, vals = append(cols, j), append(vals, tu[j])
		}
	}
	lo, _ := e.r.Span()
	var want []int32
	for i, x := range e.order {
		match := true
		for k, c := range cols {
			match = match && x[c] == vals[k]
		}
		if match {
			want = append(want, lo+int32(i))
		}
	}
	if got := e.r.LookupCols(cols, vals); !slices.Equal(got, want) {
		h.fail(t, "LookupCols(%v, %v) = %v, want %v (view from %d)", cols, vals, got, want, lo)
	}
}

// check compares e with its model through every read.
func (h *fuzzHarness) check(t *testing.T, e *fuzzRel) {
	if lo, hi := e.r.Span(); e.r.Len() != len(e.order) || int(hi-lo) != len(e.order) {
		h.fail(t, "Len = %d, Span [%d, %d), model %d", e.r.Len(), lo, hi, len(e.order))
	}
	var each []Tuple
	e.r.Each(func(tu Tuple) bool {
		each = append(each, tu)
		return true
	})
	if !slices.EqualFunc(each, e.order, slices.Equal) {
		h.fail(t, "Each: %s", diff(each, e.order))
	}
	want := h.sorted(e.order)
	if got := e.r.Tuples(); !slices.EqualFunc(got, want, slices.Equal) {
		h.fail(t, "Tuples: %s", diff(got, want))
	}
	if !slices.EqualFunc(e.held, e.heldWant, slices.Equal) {
		h.fail(t, "a held Tuples result: %s", diff(e.held, e.heldWant))
	}
	lo, _ := e.r.Span()
	for i, tu := range e.order {
		if !e.r.Has(tu) || e.r.OffsetOf(tu) != lo+int32(i) {
			h.fail(t, "Has(%v) = %v, OffsetOf = %d, model offset %d", tu, e.r.Has(tu), e.r.OffsetOf(tu), lo+int32(i))
		}
	}
	// Window neighbours of the model's tuples, present or not.
	for i, tu := range e.order {
		if i%7 != 0 {
			continue
		}
		nb := h.tuple(func(j int) int { return int((uint64(tu[j])-h.base[j])/h.stride[j]) + i })
		if _, in := slices.BinarySearchFunc(want, nb, Tuple.Compare); e.r.Has(nb) != in {
			h.fail(t, "Has(%v) = %v, model %v", nb, !in, in)
		}
		if i%61 == 0 {
			h.lookup(t, e, i, tu)
		}
	}
}
