package incr_test

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/wforacle"
)

// fuzzBytes reads the fuzzer's bytes as a stream of small choices.
type fuzzBytes struct{ data []byte }

// intn takes the next byte mod n; 0 once the bytes run out.
func (b *fuzzBytes) intn(n int) int {
	if len(b.data) == 0 || n <= 1 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v) % n
}

// fuzzConsts are the constants a fuzzed database and program draw from.
var fuzzConsts = []string{"a", "b", "c", "d", "e", "f"}

// fuzzPred is a predicate of a generated program: layer 0 is the EDB.
type fuzzPred struct {
	name         string
	arity, layer int
}

// fuzzProgram decodes a program in the grammar of core's randProgram —
// one or two layers of p/q predicates over E/2 and V/1, each rule a
// few positive atoms, maybe a negated one and maybe a comparison, with
// constants among the arguments — widened to what maintenance must
// also survive: rules whose variables occur only under negation, a
// comparison or in the head (the universe is enumerated), rules with
// no positive atom, and negation of a predicate of the rule's own layer
// (a program no stratification admits).
func fuzzProgram(b *fuzzBytes) string {
	vars := []string{"X", "Y", "Z", "W"}
	edb := []fuzzPred{{"E", 2, 0}, {"V", 1, 0}}
	layers := 1 + b.intn(2)
	var idb []fuzzPred
	for l := 1; l <= layers; l++ {
		idb = append(idb, fuzzPred{fmt.Sprintf("p%d", l), 1 + b.intn(2), l}, fuzzPred{fmt.Sprintf("q%d", l), 2, l})
	}
	term := func() string {
		if b.intn(8) == 0 {
			return fuzzConsts[b.intn(3)]
		}
		return vars[b.intn(len(vars))]
	}
	atom := func(p fuzzPred) string {
		args := make([]string, p.arity)
		for i := range args {
			args[i] = term()
		}
		return p.name + "(" + strings.Join(args, ",") + ")"
	}
	var rules []string
	for _, h := range idb {
		var pos, neg []fuzzPred
		pos = append(pos, edb...)
		neg = append(neg, edb...)
		for _, p := range idb {
			if p.layer <= h.layer {
				pos = append(pos, p)
			}
			if p.layer < h.layer || p.layer == h.layer && b.intn(4) == 0 {
				neg = append(neg, p)
			}
		}
		for n := 1 + b.intn(2); n > 0; n-- {
			var body []string
			for k := b.intn(4); k > 0 || len(body) == 0 && b.intn(4) != 0; k-- {
				body = append(body, atom(pos[b.intn(len(pos))]))
			}
			if b.intn(2) == 0 || len(body) == 0 {
				body = append(body, "!"+atom(neg[b.intn(len(neg))]))
			}
			if b.intn(3) == 0 {
				op := []string{"=", "!="}[b.intn(2)]
				body = append(body, vars[b.intn(len(vars))]+" "+op+" "+vars[b.intn(len(vars))])
			}
			rules = append(rules, atom(h)+" :- "+strings.Join(body, ", ")+".")
		}
	}
	return strings.Join(rules, "\n")
}

// fuzzUpdate is one update of a fuzzed stream.
type fuzzUpdate struct{ ins, del []incr.Fact }

// fuzzEDB decodes a database over the first k of the 6 constants and
// at most 16 updates of one to three facts of the program's EDB
// predicates edb (name → arity) over all 6: an update may intern a
// constant, which changes the range of the universe's variables, or
// delete a fact naming one that no fact holds.
func fuzzEDB(b *fuzzBytes, edb map[string]int) (*relation.Database, []fuzzUpdate) {
	preds := slices.Sorted(maps.Keys(edb))
	k := 1 + b.intn(len(fuzzConsts))
	db := relation.NewDatabase()
	for _, c := range fuzzConsts[:k] {
		db.AddConstant(c)
	}
	for _, p := range preds {
		db.MustEnsure(p, edb[p])
	}
	fact := func(n int) incr.Fact {
		p := preds[b.intn(len(preds))]
		args := make([]string, edb[p])
		for i := range args {
			args[i] = fuzzConsts[b.intn(n)]
		}
		return incr.Fact{Pred: p, Args: args}
	}
	if len(preds) == 0 {
		return db, nil
	}
	for n := b.intn(13); n > 0; n-- {
		f := fact(k)
		db.AddFact(f.Pred, f.Args...)
	}
	updates := make([]fuzzUpdate, 1+b.intn(16))
	for i := range updates {
		seen := make(map[string]bool)
		for n := 1 + b.intn(3); n > 0; n-- {
			del := b.intn(2) == 1
			f := fact(len(fuzzConsts))
			if seen[f.Key()] {
				continue // one tuple both inserted and deleted is an error
			}
			seen[f.Key()] = true
			if del {
				updates[i].del = append(updates[i].del, f)
			} else {
				updates[i].ins = append(updates[i].ins, f)
			}
		}
	}
	return db, updates
}

// fuzzWorld is the fuzzer's own copy of a maintainer's input: the
// constants the universe must hold — the database's, the program's and
// every inserted fact's, since the universe never shrinks — and the EDB
// facts, keyed by Fact.Key.
type fuzzWorld struct {
	domain map[string]bool
	facts  map[string]incr.Fact
}

// newFuzzWorld is the input of prog over db.
func newFuzzWorld(prog *ast.Program, db *relation.Database) *fuzzWorld {
	w := &fuzzWorld{domain: make(map[string]bool), facts: make(map[string]incr.Fact)}
	for _, c := range append(db.Universe().Names(), prog.Constants()...) {
		w.domain[c] = true
	}
	for _, name := range db.Names() {
		db.Relation(name).Each(func(t relation.Tuple) bool {
			f := incr.Fact{Pred: name, Args: make([]string, len(t))}
			for i, id := range t {
				f.Args[i] = db.Universe().Name(id)
			}
			w.facts[f.Key()] = f
			return true
		})
	}
	return w
}

// apply is Update on the copy: deletes first, then inserts, which
// intern their constants.
func (w *fuzzWorld) apply(u fuzzUpdate) {
	for _, f := range u.del {
		delete(w.facts, f.Key())
	}
	for _, f := range u.ins {
		w.facts[f.Key()] = f
		for _, a := range f.Args {
			w.domain[a] = true
		}
	}
}

// model is the model of prog under sem on the copy, from wforacle: the
// atoms true, and under the well-founded semantics those possibly true
// (else nil).
func (w *fuzzWorld) model(prog *ast.Program, sem core.Semantics) (isTrue, possible map[string]bool) {
	domain := slices.Sorted(maps.Keys(w.domain))
	facts := make(map[string][][]string)
	for _, f := range w.facts {
		facts[f.Pred] = append(facts[f.Pred], f.Args)
	}
	if sem == core.Inflationary {
		stages := wforacle.Inflationary(prog, domain, facts)
		return stages[len(stages)-1], nil
	}
	lower, upper := wforacle.Solve(prog, domain, facts)
	if sem != core.WellFounded {
		upper = nil
	}
	return lower, upper
}

// maintainedModel is m's model in the oracle's terms: the IDB atoms its
// snapshot holds, and under the well-founded semantics those possibly
// true.
func maintainedModel(prog *ast.Program, m *incr.Maintainer) (isTrue, possible map[string]bool) {
	snap := m.Snapshot()
	idb := make(map[string]*relation.Relation)
	for pred := range prog.IDB() {
		if r := snap.Rels[pred]; r != nil {
			idb[pred] = r
		}
	}
	isTrue = wforacle.Atoms(snap.Universe, idb)
	if wf := m.WF(); wf != nil {
		possible = wforacle.Atoms(m.Universe(), wf.Possible)
	}
	return isTrue, possible
}

// countNew is the number of atoms of a that b lacks.
func countNew(a, b map[string]bool) int {
	n := 0
	for k := range a {
		if !b[k] {
			n++
		}
	}
	return n
}

// FuzzMaintain maintains a small decoded program (fuzzProgram) under a
// decoded update stream (fuzzEDB) under every semantics core.MethodFor
// admits for it, and after every update compares the snapshot's model,
// and the exact change UpdateStats reports, with wforacle's on a copy
// of the input the test keeps itself (fuzzWorld): the oracle shares no
// code with the engine, and the copy none with the maintainer, whose
// universe must also equal the copy's; every layer must also keep the level
// invariant (CheckLevels).  Every fourth update the maintainer goes
// through Checkpoint, the durable snapshot encoding and RestoreWith,
// is compared again, and the restored one goes on.  src, when it
// parses, is the program instead of one decoded from the bytes.
//
// Seed corpus: the seeds below and testdata/fuzz/FuzzMaintain.
func FuzzMaintain(f *testing.F) {
	for _, s := range []struct {
		src  string
		data []byte
	}{
		// wforacle's programs: win-move, a recursive Γ stage, an unsafe
		// unstratifiable program, the closure with a stratum above it.
		{winSrc, []byte{4, 9, 0, 1, 1, 2, 2, 3, 3, 0, 4, 2, 3, 3, 1, 1, 0, 1, 0, 1, 0, 2, 0, 1, 2, 0, 0, 1, 1, 3, 4, 0, 2}},
		{mixedSrc, []byte{3, 10, 0, 0, 1, 0, 1, 2, 1, 2, 3, 1, 3, 0, 0, 2, 0, 1, 0, 3, 1, 2, 1, 0, 8, 1, 1, 0, 1, 2, 0, 0, 1, 1, 0, 2, 1, 0, 3}},
		{wfUnsafeSrc, []byte{2, 5, 0, 1, 1, 1, 2, 0, 0, 0, 2, 1, 1, 6, 0, 1, 1, 1, 0, 2, 1, 0, 0, 1, 2, 1, 0}},
		{negSrc, []byte{4, 12, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 0, 1, 0, 1, 2, 1, 3, 1, 4, 0, 1, 3, 10, 0, 1, 1, 2, 0, 0, 0, 1, 2, 0, 0, 4, 0, 0, 0, 0, 1, 1, 3, 4}},
		// CHANGES PR 23: the constant c first appears in the higher
		// stratum, which a lower stratum's universe enumeration must see.
		{constSrc, []byte{1, 2, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1}},
		// CHANGES PR 29: p(X) :- !q(X). over q(a), then delete q(b),
		// which names a constant the universe lacks and must intern
		// nothing.
		{"p(X) :- !q(X).", []byte{0, 1, 0, 0, 1, 1}},
		// The closure's hard cases for maintenance, each beside enough
		// other tuples that the deletions stay under the layer's
		// re-evaluation bound.  A cycle a↔b whose way to c is deleted:
		// s(a,c) and s(b,c) derive each other while both are there.
		{tcSrc, []byte{5, 5, 0, 1, 1, 0, 0, 2, 3, 4, 4, 3, 0, 0, 1, 0, 2}},
		// Two tuples of one level, s(a,c) and s(d,c), both through b→c,
		// each also derivable from the other through the cycle a↔d:
		// deleting b→c takes both, and neither may vouch for the other.
		{tcSrc, []byte{5, 7, 0, 1, 3, 1, 1, 2, 0, 3, 3, 0, 4, 5, 5, 4, 0, 0, 1, 1, 2}},
		// The cycle a→e→f→a with the path a→b→c→d, restored after four
		// no-op updates, so that no tuple has a known level, then c→d
		// deleted: the deletion reaches s(b,d), s(a,d), s(f,d) and
		// s(e,d) only through tuples it deleted.
		{tcSrc, []byte{5, 6, 0, 4, 4, 5, 5, 0, 0, 1, 1, 2, 2, 3, 4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 2, 3}},
		// Programs decoded from the bytes alone.
		{"", []byte{1, 1, 0, 2, 1, 3, 0, 1, 2, 0, 3, 1, 1, 0, 2, 2, 1, 0, 3, 0, 1, 2, 2, 3, 4, 0, 1, 5, 3, 8, 1, 0, 2, 1, 3, 0, 6}},
		{"", []byte{0, 0, 1, 3, 0, 0, 2, 1, 3, 2, 0, 1, 1, 1, 0, 1, 3, 2, 0, 0, 5, 7, 1, 0, 3, 2, 1, 0, 1, 1, 2, 4, 2, 0, 1, 1, 0}},
	} {
		f.Add(s.src, s.data)
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		b := &fuzzBytes{data: data}
		prog, err := parser.Program(src)
		if src == "" || err != nil {
			src = fuzzProgram(b)
			if prog, err = parser.Program(src); err != nil {
				t.Fatalf("generated program does not parse: %v\n%s", err, src)
			}
		}
		arities, err := prog.Validate()
		if err != nil {
			return
		}
		edb := make(map[string]int)
		for p, ar := range arities {
			if !prog.IDB()[p] {
				edb[p] = ar
			}
		}
		db, updates := fuzzEDB(b, edb)
		for _, sem := range []core.Semantics{core.LFP, core.Stratified, core.Inflationary, core.WellFounded} {
			if _, err := core.MethodFor(sem, prog); err != nil {
				continue
			}
			checkMaintainStream(t, src, prog, sem, db, updates)
		}
	})
}

// checkMaintainStream runs one semantics of FuzzMaintain.
func checkMaintainStream(t *testing.T, src string, prog *ast.Program, sem core.Semantics, db *relation.Database, updates []fuzzUpdate) {
	t.Helper()
	m, err := incr.New(prog, db, sem)
	if err != nil {
		t.Fatalf("%s: %v\n%s", sem, err, src)
	}
	w := newFuzzWorld(prog, db)
	where := func(i int) string {
		return fmt.Sprintf("%s, program\n%s\nafter update %d of %v", sem, src, i, updates)
	}
	check := func(m *incr.Maintainer, i int, what string) (map[string]bool, map[string]bool) {
		t.Helper()
		if got, want := slices.Sorted(slices.Values(m.Universe().Names())), slices.Sorted(maps.Keys(w.domain)); !slices.Equal(got, want) {
			t.Fatalf("%s (%s): universe %v, want %v", where(i), what, got, want)
		}
		gotTrue, gotPossible := maintainedModel(prog, m)
		wantTrue, wantPossible := w.model(prog, sem)
		if d := wforacle.Diff("true", gotTrue, wantTrue); d != "" {
			t.Fatalf("%s (%s): %s", where(i), what, d)
		}
		if d := wforacle.Diff("possible", gotPossible, wantPossible); wantPossible != nil && d != "" {
			t.Fatalf("%s (%s): %s", where(i), what, d)
		}
		if err := m.CheckLevels(); err != nil {
			t.Fatalf("%s (%s): %v", where(i), what, err)
		}
		return gotTrue, wantTrue
	}
	_, prev := check(m, 0, "initial evaluation")
	for i, u := range updates {
		st, err := m.Update(u.ins, u.del)
		if err != nil {
			t.Fatalf("%s: %v", where(i+1), err)
		}
		w.apply(u)
		_, now := check(m, i+1, st.Strategy)
		if gained, lost := countNew(now, prev), countNew(prev, now); st.InsertedIDB != gained || st.DeletedIDB != lost {
			t.Fatalf("%s: %s reports +%d -%d, the model changed by +%d -%d", where(i+1), st.Strategy, st.InsertedIDB, st.DeletedIDB, gained, lost)
		}
		prev = now
		if i%4 == 3 {
			var buf bytes.Buffer
			if err := durable.WriteSnapshot(&buf, m.Checkpoint()); err != nil {
				t.Fatalf("%s: checkpoint: %v", where(i+1), err)
			}
			cp, err := durable.ReadSnapshot(&buf)
			if err != nil {
				t.Fatalf("%s: decode checkpoint: %v", where(i+1), err)
			}
			if m, err = incr.RestoreWith(cp, engine.Options{}); err != nil {
				t.Fatalf("%s: restore: %v", where(i+1), err)
			}
			check(m, i+1, "restored")
		}
	}
}
