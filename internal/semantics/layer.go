// layer.go — maintenance of one semipositive layer.
//
// A layer is a stratum of a stratifiable program, or the whole program
// as a Γ stage of the alternating fixpoint (wellfounded.go): rules whose
// negated literals read relations the layer does not change.  Its input
// changes enter as per-predicate net changes and it returns its own,
// which the layer above consumes — insertions acting as deletions
// through negated literals and vice versa.
//
// A pass works on two states: the one the layer's own predicates live
// in, which positive own-predicate literals read and the pass updates,
// and the one negated IDB literals read.  A stratum passes the
// maintained state for both (its negated literals are over lower
// strata, read as EDB); a Γ stage passes its own stage and the stage
// below.  By the time a pass runs, every relation it reads already
// holds the new world; a change carries what entered and what left,
// and the old world is an engine.Overlay on the new relation, so no
// pass allocates in proportion to a relation it does not change.
//
// Every tuple of a layer has a level, under one invariant: a tuple of
// level ℓ has a derivation whose own-predicate tuples all have levels
// below ℓ, inputs counting 0.  A tuple first derived at stage Θʲ of the
// layer's fixpoint has one from earlier stages, so a fixpoint can start
// it; the engine records one past a derivation's highest level at each
// emission into a state that keeps levels (engine.Spec).  A layer that
// reads no own predicate positively has every tuple at level 1 and
// keeps nothing; a recursive one keeps levels when it is maintained
// (NewLayer), and otherwise has none known.
//
// An update first deletes.  Its candidates are the heads of the
// derivations it disables, read in the old world.  They are taken
// lowest level first (confirm): a candidate of level L stays when a
// pass over the own tuples below L that are not deleted still derives
// it, and is deleted otherwise; one of no known level is deleted
// unchecked, as DRed overdeletes.  Only a deletion makes more
// candidates, and only of higher or unknown levels.  The deleted tuples
// that the rest of the layer still derives come back in place
// (rederive), and what remains is removed.  The update then inserts:
// semi-naive propagation from the derivations it enables, which finds
// everything the reduced state lacks.  The layer's net change is read
// off the sets in hand — deleted and not back, appended and not deleted
// — instead of diffing relations.  Deletions that outgrow the layer
// (reevalShare) are abandoned and the layer re-evaluated, its difference
// written in place and returned as its net change.
package semantics

import (
	"cmp"
	"slices"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
)

// reevalShare: a layer whose confirmed deletions hold more than
// 1/reevalShare of its tuples is re-evaluated.  A deleted tuple costs a
// support check, a cascade pass and a rederive probe, re-evaluation
// each layer tuple about once; a quarter, not a third, also pays for
// the passes spent before giving up.
const reevalShare = 4

// Change is one predicate's net change: the tuples that entered (Add)
// and left (Del) the relation Cur, which already holds the new world.
// Every other world a pass reads is an overlay on Cur.
type Change struct {
	Add, Del, Cur *relation.Relation
	// NegOnly marks the change of the state a Γ stage's negated IDB
	// literals are frozen against: it drives those literals alone, the
	// positive literals of the same predicate read the stage's own state.
	NegOnly bool
}

// old is the relation before the change: Cur ∖ Add ∪ Del.
func (c *Change) old() engine.Overlay {
	return engine.Overlay{Base: c.Cur, Minus: c.Add, Plus: c.Del}
}

// diff is the change that takes old to now — what entered and what
// left, current in now — or nil when the two are equal.
func diff(old, now *relation.Relation) *Change {
	c := &Change{Add: now.Diff(old), Del: old.Diff(now), Cur: now}
	if c.Add.Empty() && c.Del.Empty() {
		return nil
	}
	return c
}

// DiffStates is the change that takes old to now per predicate of now,
// the unchanged ones left out.
func DiffStates(old, now engine.State) map[string]*Change {
	ch := make(map[string]*Change)
	for pred, rel := range now {
		if c := diff(old[pred], rel); c != nil {
			ch[pred] = c
		}
	}
	return ch
}

// Layer is one semipositive layer with its engine instance.
type Layer struct {
	in        *engine.Instance
	predList  []string        // own IDB predicates, sorted
	bodyPreds map[string]bool // predicates read by rule bodies
	// Recursive: some rule body reads an own predicate positively.  If
	// none does, every tuple has level 1, a deletion makes no further
	// candidates and nothing deleted comes back but what the support
	// check keeps.  NewLayer sets it.
	Recursive bool

	// One Apply's scratch, kept across applies: a layer is applied by
	// one goroutine at a time.  Each state holds a relation per own
	// predicate, emptied before each use (empty).
	dis, ena, casc              map[string]engine.Delta
	mark                        []int
	over                        map[string]engine.Overlay
	cand, batch, out, del, back engine.State
	queue                       []candidate
}

// NewLayer is the layer whose rules are in's program.  With
// keepLevels, a recursive layer's instance keeps levels
// (engine.Instance.KeepLevels): a maintained layer asks for them, a
// one-shot evaluation does not.
func NewLayer(in *engine.Instance, keepLevels bool) *Layer {
	sub := in.Program()
	own := sub.IDB()
	l := &Layer{in: in, predList: sub.IDBList(), bodyPreds: make(map[string]bool)}
	for _, r := range sub.Rules {
		for _, lit := range r.Body {
			if lit.Kind == ast.LitPos || lit.Kind == ast.LitNeg {
				l.bodyPreds[lit.Atom.Pred] = true
				l.Recursive = l.Recursive || lit.Kind == ast.LitPos && own[lit.Atom.Pred]
			}
		}
	}
	if keepLevels && l.Recursive {
		in.KeepLevels()
	}
	return l
}

// touched reports whether any changed predicate is read by the layer.
func (l *Layer) touched(ch map[string]*Change) bool {
	for pred := range ch {
		if l.bodyPreds[pred] {
			return true
		}
	}
	return false
}

// drivers compiles the changes the layer reads into the deltas of its
// two passes: dis drives the derivations the update disables — a removed
// tuple under a positive literal, an added one under a negated literal —
// with the literals after the driver reading the old world; ena drives
// the ones it enables, read in the new world the relations already
// hold; anyDis and anyEna report whether either has a driver.  A
// derivation with several drivers may be enumerated once per driver,
// which the set-valued passes of DRed tolerate.  A NegOnly change
// leaves the positive side of its predicate alone.
func (l *Layer) drivers(ch map[string]*Change) (dis, ena map[string]engine.Delta, anyDis, anyEna bool) {
	if l.dis == nil {
		l.dis, l.ena = make(map[string]engine.Delta, len(ch)), make(map[string]engine.Delta, len(ch))
	}
	dis, ena = l.dis, l.ena
	clear(dis)
	clear(ena)
	for pred, c := range ch {
		if !l.bodyPreds[pred] {
			continue
		}
		d := engine.Delta{AfterNeg: c.old()}
		var e engine.Delta
		if !c.NegOnly {
			d.After = c.old()
		}
		if !c.Del.Empty() {
			e.NegDriver = c.Del
			if !c.NegOnly {
				d.PosDriver = c.Del
			}
		}
		if !c.Add.Empty() {
			d.NegDriver = c.Add
			if !c.NegOnly {
				e.PosDriver = c.Add
			}
		}
		dis[pred], ena[pred] = d, e
		anyDis = anyDis || d.PosDriver != nil || d.NegDriver != nil
		anyEna = anyEna || e.PosDriver != nil || e.NegDriver != nil
	}
	return dis, ena, anyDis, anyEna
}

// Apply maintains the layer's predicates in own under the changes ch of
// what its bodies read, with negated IDB literals reading neg, and
// returns their net changes: confirm which candidates lost their
// support, rederive what of them the rest still derives, remove the
// remainder, then propagate insertions semi-naively — or re-evaluate
// the layer once its confirmed deletions outgrow their bound.  It
// counts the layer and its engine passes in st.
func (l *Layer) Apply(own, neg engine.State, ch map[string]*Change, st *Stats) map[string]*Change {
	if !l.touched(ch) {
		return nil
	}
	eval := func(sp engine.Spec) engine.State {
		st.Rounds++
		return l.in.Eval(sp)
	}
	// Disabled drivers with old-world reads; enabled drivers.
	base, seed, anyDel, anyIns := l.drivers(ch)

	// 1. Delete: the candidates are the heads of the derivations the
	// update disables, read in the old world.
	var del engine.State
	if anyDel {
		if !l.confirm(own, neg, base, eval) {
			st.Reevaluated++
			return l.reevaluate(own, neg, st)
		}
		del = l.del
		if l.Recursive && !del.Empty() {
			l.rederive(own, neg, eval)
		}
		for _, pred := range l.predList {
			own[pred].RemoveAll(del[pred])
		}
	}

	// Everything phase 2 adds is appended past these lengths.
	l.mark = l.mark[:0]
	for _, pred := range l.predList {
		l.mark = append(l.mark, own[pred].Len())
	}

	// 2. Insert: derivations the update enables, propagated semi-naively
	// through the layer in the new world: each pass appends to own what
	// it lacks and drives the next with the range it appended.  What the
	// reduced state derives without an enabled driver it holds already:
	// such a derivation held in the old world, so its head was kept by
	// confirm or rederive, or was never a candidate.
	if anyIns {
		frontier := eval(engine.Spec{Pos: own, Neg: neg, Deltas: seed, Into: own})
		for !frontier.Empty() && l.Recursive {
			frontier = eval(engine.Spec{Pos: own, Neg: neg, Deltas: withDriver(nil, nil, frontier), Into: own})
		}
	}

	// Net changes, from the sets in hand: a tuple left the relation iff it
	// was deleted and did not come back, and entered it iff it was
	// appended past the mark without having been deleted.
	net := make(map[string]*Change, len(l.predList))
	for i, pred := range l.predList {
		rel, gone := own[pred], del[pred]
		c := &Change{Add: relation.New(rel.Arity()), Del: relation.New(rel.Arity()), Cur: rel}
		if gone != nil && !gone.Empty() {
			c.Del = gone.Diff(rel)
		}
		for off := l.mark[i]; off < rel.Len(); off++ {
			if t := rel.At(int32(off)); gone == nil || !gone.Has(t) {
				c.Add.Add(t)
			}
		}
		if !c.Add.Empty() || !c.Del.Empty() {
			net[pred] = c
		}
	}
	st.Maintained++
	return net
}

// withDriver is the side reads of deltas with the own predicates driven
// by front, written into out (cleared; nil for a new map).  An own
// predicate may have an entry already — a Γ stage reads it negated
// against the changed stage below — whose negated side must survive
// next to the driver.
func withDriver(out, deltas map[string]engine.Delta, front engine.State) map[string]engine.Delta {
	if out == nil {
		out = make(map[string]engine.Delta, len(deltas)+len(front))
	}
	clear(out)
	for pred, d := range deltas {
		d.PosDriver, d.NegDriver = nil, nil
		out[pred] = d
	}
	for pred, r := range front {
		d := out[pred]
		d.PosDriver = r
		out[pred] = d
	}
	return out
}

// empty returns the scratch state *s with every relation emptied,
// making it on first use; with own set its relations track levels
// where own's do.
func (l *Layer) empty(s *engine.State, own engine.State) engine.State {
	if *s == nil {
		*s = make(engine.State, len(l.predList))
		for _, pred := range l.predList {
			(*s)[pred] = relation.New(l.in.Arity(pred))
		}
	}
	for _, pred := range l.predList {
		r := (*s)[pred]
		r.Clear()
		if own != nil && own[pred].TracksLevels() {
			r.TrackLevels()
		}
	}
	return *s
}

// confirm takes the candidates — the tuples of own that derivations the
// update disables supported, base reading the old world — lowest level
// first, and leaves in l.del the ones that lost their support, still in
// own.  A candidate of level L is kept when a Within pass over own's
// tuples below L, the confirmed deletions left out, still derives it in
// the new world: each such tuple is settled by then, and keeps a
// derivation below its level.  A kept tuple keeps its level; one of no
// known level cannot be checked and is deleted.  Each deleted tuple
// drives, in the old world, the derivations it took part in, and their
// heads of a higher or no known level become candidates: a head of a
// lower or equal level has a derivation without it.  So a tuple no
// candidate reached keeps the derivation its level names.  confirm
// gives up, reporting false, once the deletions outgrow the layer
// (reevalShare).
func (l *Layer) confirm(own, neg engine.State, base map[string]engine.Delta, eval func(engine.Spec) engine.State) bool {
	size := 0
	for _, pred := range l.predList {
		size += own[pred].Len()
	}
	del := l.empty(&l.del, nil)
	l.empty(&l.cand, nil)
	l.queue = l.queue[:0]
	if l.over == nil {
		l.over = make(map[string]engine.Overlay, len(l.predList))
	}
	eval(engine.Spec{Pos: own, Neg: neg, Deltas: base, Into: l.empty(&l.out, nil)})
	l.enqueue(own, 0)
	gone := 0
	for len(l.queue) > 0 {
		lv, n := l.queue[0].lv, 1
		for n < len(l.queue) && l.queue[n].lv == lv {
			n++
		}
		batch := l.empty(&l.batch, nil)
		for _, c := range l.queue[:n] {
			pred := l.predList[c.pred]
			batch[pred].Add(own[pred].At(c.off))
		}
		l.queue = append(l.queue[:0], l.queue[n:]...)
		if lv != relation.NoLevel {
			for _, pred := range l.predList {
				l.over[pred] = engine.Overlay{Base: own[pred], Minus: del[pred], Below: lv}
			}
			kept := l.empty(&l.out, nil)
			eval(engine.Spec{Pos: own, Neg: neg, Over: l.over, Within: batch, Into: kept})
			for _, pred := range l.predList {
				if r := kept[pred]; !r.Empty() {
					batch[pred].RemoveAll(r)
				}
			}
		}
		n = 0
		for _, pred := range l.predList {
			n += batch[pred].Len()
			del[pred].AppendDisjoint(batch[pred])
		}
		if gone += n; gone*reevalShare > size {
			return false
		}
		if l.Recursive && n > 0 {
			l.casc = withDriver(l.casc, base, batch)
			eval(engine.Spec{Pos: own, Neg: neg, Deltas: l.casc, Into: l.empty(&l.out, nil)})
			l.enqueue(own, lv)
		}
	}
	return true
}

// candidate is a tuple of own that confirm checks: its level, the index
// of its predicate in predList and its arena offset, which names it
// while confirm runs, since nothing leaves own before it returns.
type candidate struct {
	lv   uint16
	pred int
	off  int32
}

// enqueue queues, in level order, the heads in l.out — derivations
// driven by deletions of level lv, or by the update for lv 0 — whose
// level is higher or unknown and that were not candidates already:
// l.cand holds every candidate queued so far.
func (l *Layer) enqueue(own engine.State, lv uint16) {
	queued := len(l.queue)
	for i, pred := range l.predList {
		rel, seen := own[pred], l.cand[pred]
		l.out[pred].Each(func(t relation.Tuple) bool {
			off, v := rel.OffsetOf(t), uint16(1)
			if l.Recursive {
				v = rel.Level(off)
			}
			if off >= 0 && (v > lv || v == relation.NoLevel) && seen.Add(t) {
				l.queue = append(l.queue, candidate{v, i, off})
			}
			return true
		})
	}
	if len(l.queue) > queued {
		slices.SortFunc(l.queue, func(a, b candidate) int { return cmp.Compare(a.lv, b.lv) })
	}
}

// rederive brings back, in place, the deleted tuples l.del of own that
// the rest of own still derives: a Within pass over them reads own less
// them, and semi-naive passes driven by what came back read own less
// what is still deleted, until none comes back.  What comes back leaves
// l.del, at the level its new derivation gives it.
func (l *Layer) rederive(own, neg engine.State, eval func(engine.Spec) engine.State) {
	for pred, r := range l.del {
		l.over[pred] = engine.Overlay{Base: own[pred], Minus: r}
	}
	sp := engine.Spec{Pos: own, Neg: neg, Over: l.over, Within: l.del, Into: l.empty(&l.back, own)}
	for found := eval(sp); !found.Empty(); found = eval(sp) {
		for pred, r := range found {
			rel := own[pred]
			lo, hi := r.Span()
			for off := lo; off < hi; off++ {
				t := r.At(off)
				if rel.TracksLevels() {
					rel.SetLevel(rel.OffsetOf(t), r.Level(off))
				}
				l.del[pred].Remove(t)
			}
		}
		l.casc = withDriver(l.casc, nil, found)
		sp.Deltas = l.casc
	}
}

// reevaluate computes the layer from scratch, Γ against neg, and writes
// the difference into own's relations in place — the strata above read
// them from the database — returning it as the layer's net change.
// Where own keeps levels, every tuple takes the fresh fixpoint's.
func (l *Layer) reevaluate(own, neg engine.State, st *Stats) map[string]*Change {
	fresh := lfpLoop(l.in, neg)
	st.add(fresh.Stats)
	net := make(map[string]*Change, len(l.predList))
	for _, pred := range l.predList {
		rel, now := own[pred], fresh.State[pred]
		if c := diff(rel, now); c != nil {
			rel.RemoveAll(c.Del)
			rel.AppendDisjoint(c.Add)
			c.Cur = rel
			net[pred] = c
		}
		if rel.TracksLevels() {
			for off := range int32(rel.Len()) {
				rel.SetLevel(off, now.Level(now.OffsetOf(rel.At(off))))
			}
		}
	}
	return net
}
