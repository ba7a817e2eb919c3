// Package incr maintains the materialized result of a DATALOG¬ program
// under EDB fact inserts and deletes, without recomputing the fixpoint
// from scratch.
//
// The machinery follows core.MethodFor, which reads the method —
// strata, stages or alternation — off the semantics and the program
// class:
//
//   - Strata (lfp, stratified, inflationary on a positive or
//     semipositive program, well-founded on a stratifiable one): the
//     strata semantics.Strata compiles are maintained bottom-up, each a
//     semantics.Layer whose deletions are checked for support lowest
//     level first (or re-evaluated once they outgrow it), whose net
//     change the strata above
//     consume: an update's cost follows what it changes, not the size
//     of the relations it changes it in.
//   - Stages (inflationary with IDB negation): the result is defined
//     by the order in which the stage sequence S₀ = ∅, Sⱼ₊₁ = Sⱼ ∪ Θ(Sⱼ)
//     derives its tuples, which no DRed pass preserves, so an update
//     recomputes the sequence from S₀ over the updated EDB.
//   - Alternation (well-founded on an unstratifiable program): the
//     stages A₀ … Aₙ of the alternating fixpoint, each a layer over the
//     EDB and the stage below, are built by semantics.Layer.Alternate
//     and kept; an update walks them with the same DRed pass (chain.go).
//     Memory is n × |IDB| where batch evaluation holds 2 ×.  A
//     stratifiable program's well-founded model is total and the
//     stratified one, so its method is strata, with Possible = True.
//
// Universe growth under rules that enumerate the universe invalidates
// every shortcut above and is answered by the same from-scratch
// evaluation, and stays out of scope for maintenance: a new constant
// widens every universe-quantified variable's range.
//
// A Maintainer is single-writer: Update and Snapshot must be called
// from one goroutine (or externally serialized).  Snapshots returned by
// Snapshot are sealed immutable views that arbitrary goroutines may
// read while later updates run — the daemon's concurrent-reader
// contract.
package incr

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// Fact is one EDB tuple named by constants, as it appears in update
// requests.
type Fact struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// Key is a canonical map key for the fact: two facts have the same key
// exactly when they have the same predicate and arguments.
func (f Fact) Key() string {
	return f.Pred + "\x1f" + strings.Join(f.Args, "\x1e")
}

// UpdateStats reports what one Update did.
type UpdateStats struct {
	// Strategy that handled the update: DRed over strata ("strata") or
	// over the stages of the alternating fixpoint ("alternation"), named
	// as the core.Method they maintain; recompute; or noop.
	Strategy string `json:"strategy"`
	// EDB tuples actually inserted/removed (duplicates and misses are
	// dropped during normalization).
	InsertedEDB int `json:"inserted_edb"`
	DeletedEDB  int `json:"deleted_edb"`
	// IDB tuples the maintained state gained/lost (under WellFounded:
	// the certainly-true part), whatever the strategy.
	InsertedIDB int `json:"inserted_idb"`
	DeletedIDB  int `json:"deleted_idb"`
	// Layers — strata or Γ stages — the update changed the inputs of,
	// maintained or, when the confirmed deletions outgrew the layer's
	// bound, re-evaluated from scratch.
	Maintained  int           `json:"maintained_layers"`
	Reevaluated int           `json:"reevaluated_layers"`
	Duration    time.Duration `json:"duration_ns"`
}

// Snapshot is a published point-in-time view of the maintained
// database: every program relation (EDB and IDB) as a sealed immutable
// view, plus a private copy of the universe.  Safe for concurrent reads
// from any number of goroutines while the maintainer keeps updating.
type Snapshot struct {
	Rels     map[string]*relation.Relation
	Universe *relation.Universe
	Gen      uint64
	Sem      core.Semantics
}

// Relation returns the named relation of the snapshot, or nil.
func (s *Snapshot) Relation(name string) *relation.Relation { return s.Rels[name] }

// Maintainer owns a program, a private copy of its database, and the
// materialized result, and keeps the result exact under EDB updates.
type Maintainer struct {
	prog    *ast.Program
	sem     core.Semantics
	db      *relation.Database
	arities map[string]int
	idb     map[string]bool
	state   engine.State
	gen     uint64
	// method is core.MethodFor(sem, prog): strata, stages or
	// alternation.  Strata are maintained stratum by stratum, Stages by
	// recompute and Alternation as the chain of Γ stages.
	method core.Method
	safe   bool // every rule variable bound positively: universe growth cannot change plans

	// Strata: semantics.Strata's instances over db, which doubles as
	// their working database, and the layers DRed maintains over them.
	insts  []*engine.Instance
	strata []*semantics.Layer
	in     *engine.Instance // Stages, Alternation
	gamma  *semantics.Layer // Alternation: the whole program as one Γ stage
	chain  []engine.State   // Alternation: A₀ = ∅, A₁ … Aₙ

	// pubUniv caches the universe copy handed to snapshots; the
	// universe is append-only, so it is stale exactly when the sizes
	// differ, and updates that intern nothing republish it for free.
	pubUniv *relation.Universe
}

// New builds a maintainer for prog on a private clone of db, runs the
// initial evaluation under sem, and returns it ready for updates.
func New(prog *ast.Program, db *relation.Database, sem core.Semantics) (*Maintainer, error) {
	return newMaintainer(prog, sem, db.Clone())
}

// NewWith is New; it remains only for benchmark/.
func NewWith(prog *ast.Program, db *relation.Database, sem core.Semantics, _ engine.Options) (*Maintainer, error) {
	return New(prog, db, sem)
}

// newMaintainer builds a maintainer for prog under sem over db, which
// it takes over: the engine instances its method evaluates with, and
// the state they compute.  New and RestoreWith both start here.
func newMaintainer(prog *ast.Program, sem core.Semantics, db *relation.Database) (*Maintainer, error) {
	arities, err := prog.Validate()
	if err != nil {
		return nil, err
	}
	method, err := core.MethodFor(sem, prog)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		prog:    prog,
		sem:     sem,
		db:      db,
		arities: arities,
		idb:     prog.IDB(),
		method:  method,
		safe:    allVarsPositive(prog),
	}
	switch method {
	case core.Strata:
		m.insts, err = semantics.Strata(prog, db)
		for _, in := range m.insts {
			m.strata = append(m.strata, semantics.NewLayer(in, true))
		}
	default:
		m.in, err = engine.New(prog, db)
		if method == core.Alternation && err == nil {
			m.gamma = semantics.NewLayer(m.in, true)
		}
	}
	if err != nil {
		return nil, err
	}
	m.recompute()
	return m, nil
}

// State returns the live maintained IDB state (for WellFounded, the
// certainly-true part).  It must only be read from the maintainer's
// goroutine; concurrent readers use Snapshot.
func (m *Maintainer) State() engine.State { return m.state }

// WF returns the full three-valued result when the semantics is
// WellFounded, else nil: True is the maintained state, Possible the
// last odd stage of the chain and Outer its number of stage pairs, or
// True again and 0 for a stratifiable program maintained as strata.
// Like State it is live and single-goroutine.
func (m *Maintainer) WF() *semantics.WFResult {
	if m.sem != core.WellFounded {
		return nil
	}
	res := &semantics.WFResult{True: m.state, Possible: m.state}
	if n := len(m.chain) - 1; m.method == core.Alternation {
		res.Possible, res.Outer = m.chain[n-1], n/2
	}
	return res
}

// Universe returns the maintainer's universe.  Single-goroutine, like
// State; snapshots carry their own copy.
func (m *Maintainer) Universe() *relation.Universe { return m.db.Universe() }

// Snapshot publishes the current state: sealed immutable views of every
// program relation plus a private universe copy.  Readers on any
// goroutine may use it while Update keeps running; the first mutation
// of each relation after publication copies its storage (copy-on-write)
// so published views are never written to.
func (m *Maintainer) Snapshot() *Snapshot {
	rels := make(map[string]*relation.Relation, len(m.state)+8)
	for pred, r := range m.state {
		rels[pred] = r.Snapshot()
		r.Seal()
	}
	for _, name := range m.db.Names() {
		if _, ok := rels[name]; ok {
			continue
		}
		r := m.db.Relation(name)
		rels[name] = r.Snapshot()
		r.Seal()
	}
	if m.pubUniv == nil || m.pubUniv.Size() != m.db.Universe().Size() {
		m.pubUniv = m.db.Universe().Clone()
	}
	return &Snapshot{Rels: rels, Universe: m.pubUniv, Gen: m.gen, Sem: m.sem}
}

// Update applies the fact inserts and deletes and incrementally
// maintains the materialized state.  Inserting a present fact or
// deleting an absent one is a no-op; a tuple appearing in both lists is
// an error.  Inserts intern new constants; a delete interns and creates
// nothing, since a fact naming a constant or predicate not held is absent.
func (m *Maintainer) Update(ins, del []Fact) (*UpdateStats, error) {
	start := time.Now()
	stats := &UpdateStats{}
	ch, grew, err := m.normalize(ins, del, stats)
	if err != nil {
		return nil, err
	}
	effective := len(ch) > 0
	switch {
	case grew && !m.safe, effective && m.method == core.Stages:
		// A new constant changes the universe the unsafe rules
		// enumerate, invalidating every maintenance shortcut; a
		// general inflationary program has none to begin with.
		stats.Strategy = "recompute"
		before := m.state
		m.recompute()
		for _, c := range semantics.DiffStates(before, m.state) {
			stats.InsertedIDB += c.Add.Len()
			stats.DeletedIDB += c.Del.Len()
		}
	case !effective:
		stats.Strategy = "noop"
	case m.method == core.Alternation:
		stats.Strategy = "alternation"
		m.updateChain(ch, stats)
	default:
		stats.Strategy = "strata"
		m.updateStrata(ch, stats)
	}
	m.gen++
	stats.Duration = time.Since(start)
	return stats, nil
}

// updateStrata cascades the EDB changes upward through the strata,
// extending ch with each stratum's net IDB changes.
func (m *Maintainer) updateStrata(ch map[string]*semantics.Change, stats *UpdateStats) {
	var st semantics.Stats
	for _, s := range m.strata {
		for pred, c := range s.Apply(m.state, m.state, ch, &st) {
			ch[pred] = c
			stats.InsertedIDB += c.Add.Len()
			stats.DeletedIDB += c.Del.Len()
		}
	}
	stats.Maintained, stats.Reevaluated = st.Maintained, st.Reevaluated
}

// recompute does the full evaluation with the current database: the
// initial one of a build or a restore, every update of a general
// inflationary program, and the fallback for universe growth under
// unsafe rules.
func (m *Maintainer) recompute() {
	switch m.method {
	case core.Stages:
		m.state = semantics.Inflationary(m.in).State
	case core.Alternation:
		m.chain = m.gamma.Alternate([]engine.State{m.in.NewState()}, nil, true, &semantics.Stats{})
		m.state = m.chain[len(m.chain)-1]
	default:
		m.state = semantics.EvalStrata(m.db, m.insts).State
	}
}

// Admit applies the checks of an update that read only the program,
// whose IDB predicates are idb and whose predicate arities are
// arities: no fact may name an IDB predicate or disagree with the
// program's arity for its predicate, and no fact may be both inserted
// and deleted, whether or not it is present.  It reads no maintainer
// state, so a server can admit a request before queueing it.
func Admit(idb map[string]bool, arities map[string]int, ins, del []Fact) error {
	check := func(f Fact) error {
		if idb[f.Pred] {
			return fmt.Errorf("incr: %s is an IDB predicate; only EDB facts can be updated", f.Pred)
		}
		if ar, ok := arities[f.Pred]; ok && ar != len(f.Args) {
			return fmt.Errorf("incr: %s has arity %d in the program, got %d args", f.Pred, ar, len(f.Args))
		}
		return nil
	}
	var deleted map[string]bool // only an update with both lists can conflict
	if len(ins) > 0 && len(del) > 0 {
		deleted = make(map[string]bool, len(del))
	}
	for _, f := range del {
		if err := check(f); err != nil {
			return err
		}
		if deleted != nil {
			deleted[f.Key()] = true
		}
	}
	for _, f := range ins {
		if err := check(f); err != nil {
			return err
		}
		if deleted != nil && deleted[f.Key()] {
			return fmt.Errorf("incr: %s(%s) both inserted and deleted in one update", f.Pred, strings.Join(f.Args, ","))
		}
	}
	return nil
}

// validate rejects an update the maintainer cannot apply, touching
// nothing: neither a constant is interned nor a relation created before
// every fact has passed, so a rejected update (which is never logged)
// leaves no trace a later update or a recovery could tell.  Beyond
// Admit it checks each fact against the arity of the relation the
// database holds, or an earlier fact of the update gave, for its
// predicate.
func (m *Maintainer) validate(ins, del []Fact) error {
	if err := Admit(m.idb, m.arities, ins, del); err != nil {
		return err
	}
	fresh := make(map[string]int) // arities this update gives predicates the database lacks
	for _, facts := range [][]Fact{del, ins} {
		for _, f := range facts {
			ar, ok := fresh[f.Pred]
			if rel := m.db.Relation(f.Pred); rel != nil {
				ar, ok = rel.Arity(), true
			}
			if ok && ar != len(f.Args) {
				return fmt.Errorf("incr: relation %s has arity %d, got %d args", f.Pred, ar, len(f.Args))
			}
			fresh[f.Pred] = len(f.Args)
		}
	}
	return nil
}

// normalize validates the update, interns its inserts' constants,
// applies it to the EDB relations, and returns the effective
// per-predicate changes.  grew reports whether interning added any.
func (m *Maintainer) normalize(ins, del []Fact, stats *UpdateStats) (map[string]*semantics.Change, bool, error) {
	if err := m.validate(ins, del); err != nil {
		return nil, false, err
	}
	univ := m.db.Universe()
	before := univ.Size()

	ch := make(map[string]*semantics.Change)
	chFor := func(pred string, rel *relation.Relation) *semantics.Change {
		c := ch[pred]
		if c == nil {
			c = &semantics.Change{
				Add: relation.New(rel.Arity()),
				Del: relation.New(rel.Arity()),
				Cur: rel,
			}
			ch[pred] = c
		}
		return c
	}

	// Stage the effective tuples first (membership is tested against the
	// relations as they were), then apply.
	for _, f := range del {
		if t, rel := m.lookup(f); rel != nil && rel.Has(t) {
			chFor(f.Pred, rel).Del.Add(t)
		}
	}
	for _, f := range ins {
		rel := m.db.MustEnsure(f.Pred, len(f.Args))
		t := make(relation.Tuple, len(f.Args))
		for i, a := range f.Args {
			t[i] = univ.Intern(a)
		}
		if !rel.Has(t) {
			chFor(f.Pred, rel).Add.Add(t)
		}
	}
	for _, c := range ch {
		c.Cur.RemoveAll(c.Del)
		c.Cur.UnionWith(c.Add)
		stats.InsertedEDB += c.Add.Len()
		stats.DeletedEDB += c.Del.Len()
	}
	return ch, univ.Size() > before, nil
}

// lookup resolves a fact against the database without interning or
// creating anything: the relation is nil when the fact names a
// predicate or a constant the database lacks, so it cannot be present.
func (m *Maintainer) lookup(f Fact) (relation.Tuple, *relation.Relation) {
	t := make(relation.Tuple, len(f.Args))
	for i, a := range f.Args {
		var ok bool
		if t[i], ok = m.db.Universe().Lookup(a); !ok {
			return nil, nil
		}
	}
	return t, m.db.Relation(f.Pred)
}

// allVarsPositive reports whether every variable of every rule is bound
// by a positive body literal — such programs never enumerate the
// universe, so growing it cannot change any derivation.
func allVarsPositive(p *ast.Program) bool {
	for _, r := range p.Rules {
		pv := r.PositiveVars()
		for _, v := range r.Vars() {
			if !pv[v] {
				return false
			}
		}
	}
	return true
}
