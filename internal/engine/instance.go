package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/relation"
)

// slot is a compiled term: either a constant (resolved to a universe
// id) or a variable (an index into the rule's binding array).
type slot struct {
	isConst bool
	val     int // universe id if isConst, else variable index
}

// litPlan is a compiled body literal, positive or negated.  level
// marks a positive IDB literal as written in the rule: the levels of
// the tuples it matches bound the level of the head (Relation.Level).
type litPlan struct {
	pred  string
	idb   bool
	level bool
	slots []slot
}

// cmpPlan is a compiled equality or inequality constraint.
type cmpPlan struct {
	neq         bool
	left, right slot
}

// rulePlan is a rule compiled against a specific universe.  The join
// order is not part of the compiled form: it is chosen per evaluation
// task in planner.go, where the planner can see the concrete relations
// (and hence sizes) each literal reads, and the plan compiled for each
// order met is cached here.
type rulePlan struct {
	src       ast.Rule
	headPred  string
	headSlots []slot
	nvars     int
	varNames  []string // variable index -> source name (for Explain)
	positives []litPlan
	negatives []litPlan
	cmps      []cmpPlan
	comp      []int // variable index -> its body component (planner.go)

	plans    atomic.Pointer[[]*execPlan] // compiled plans by join order (planner.go)
	variants []atomic.Pointer[rulePlan]  // delta variants, built on first use (delta.go)
}

// Instance binds a validated program to a database, compiling every
// rule into an evaluation plan.  Program constants are interned into
// the database universe at construction (they become part of the
// active domain, as in the paper's Theorem 4 where the domain is the
// program's {0,1}).
type Instance struct {
	prog    *ast.Program
	db      *relation.Database
	arities map[string]int
	idb     map[string]bool
	idbList []string // the IDB predicates, sorted: NewState walks no map
	plans   []*rulePlan
	empties map[int]*relation.Relation // canonical empty relation per arity
	levels  bool                       // set by KeepLevels
}

// New compiles prog against db.  It returns an error if the program
// fails validation.  The database universe is extended with the
// program's constants.
func New(prog *ast.Program, db *relation.Database) (*Instance, error) {
	arities, err := prog.Validate()
	if err != nil {
		return nil, err
	}
	// EDB relations present in the database must match program arities.
	for pred, ar := range arities {
		if r := db.Relation(pred); r != nil && r.Arity() != ar {
			return nil, fmt.Errorf("relation %s has arity %d in the database but %d in the program",
				pred, r.Arity(), ar)
		}
	}
	in := &Instance{
		prog:    prog,
		db:      db,
		arities: arities,
		idb:     prog.IDB(),
		idbList: prog.IDBList(),
		empties: make(map[int]*relation.Relation),
	}
	// Canonical empty relations are precomputed for every program
	// arity: concurrent passes on one instance call source, so it must
	// never mutate instance state.
	for _, ar := range arities {
		if _, ok := in.empties[ar]; !ok {
			in.empties[ar] = relation.New(ar)
		}
	}
	for _, r := range prog.Rules {
		in.plans = append(in.plans, in.compile(r))
	}
	return in, nil
}

// Options remains only for benchmark/, whose harness still passes it
// to NewWith and to five forwarders above the engine: evaluation has no
// settings.
type Options struct{}

// NewWith is New; it remains only for benchmark/.
func NewWith(prog *ast.Program, db *relation.Database, _ Options) (*Instance, error) {
	return New(prog, db)
}

// MustNew is New but panics on error.
func MustNew(prog *ast.Program, db *relation.Database) *Instance {
	in, err := New(prog, db)
	if err != nil {
		panic("engine: " + err.Error())
	}
	return in
}

// KeepLevels makes NewState's relations keep a level per tuple, which
// the instance's passes record (Spec).  A maintained layer that reads
// its own predicates positively calls it before its first evaluation
// (semantics.NewLayer).
func (in *Instance) KeepLevels() { in.levels = true }

// Program returns the bound program.
func (in *Instance) Program() *ast.Program { return in.prog }

// Database returns the bound database.
func (in *Instance) Database() *relation.Database { return in.db }

// Universe returns the bound database's universe.
func (in *Instance) Universe() *relation.Universe { return in.db.Universe() }

// IDB reports whether pred is an IDB predicate of the program.
func (in *Instance) IDB(pred string) bool { return in.idb[pred] }

// Arity returns the arity of a program predicate (0 if unknown).
func (in *Instance) Arity(pred string) int { return in.arities[pred] }

// IDBPreds returns the IDB predicate names, sorted.
func (in *Instance) IDBPreds() []string { return in.prog.IDBList() }

// NewState returns a state with an empty relation for every IDB
// predicate, each tracking levels after KeepLevels.
func (in *Instance) NewState() State {
	s := make(State, len(in.idbList))
	for _, pred := range in.idbList {
		s[pred] = relation.New(in.arities[pred])
		if in.levels {
			s[pred].TrackLevels()
		}
	}
	return s
}

// source resolves what literal l, the i-th of its kind in a task with
// the overrides over, reads: the override when there is one, else the
// database for an EDB predicate and for an IDB one its entry in the
// Spec's Over map ov, else s — the canonical empty relation when the
// predicate has no relation.  Concurrent passes on one instance call
// it, so it only reads.
func (in *Instance) source(over []Overlay, i int, l litPlan, s State, ov map[string]Overlay) Overlay {
	if i < len(over) && over[i].Base != nil {
		return over[i]
	}
	var r *relation.Relation
	if l.idb {
		if o, ok := ov[l.pred]; ok {
			return o
		}
		r = s[l.pred]
	} else {
		r = in.db.Relation(l.pred)
	}
	if r == nil {
		r = in.empties[in.arities[l.pred]]
	}
	return Overlay{Base: r}
}

// compile builds the evaluation plan for one rule.
func (in *Instance) compile(r ast.Rule) *rulePlan {
	vars := r.Vars()
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		varIdx[v] = i
	}
	mkSlot := func(t ast.Term) slot {
		if t.IsVar() {
			return slot{val: varIdx[t.Name]}
		}
		return slot{isConst: true, val: in.db.Universe().Intern(t.Name)}
	}
	mkSlots := func(a ast.Atom) []slot {
		out := make([]slot, len(a.Args))
		for i, t := range a.Args {
			out[i] = mkSlot(t)
		}
		return out
	}

	rp := &rulePlan{
		src:      r,
		headPred: r.Head.Pred,
		nvars:    len(vars),
		varNames: vars,
	}
	rp.headSlots = mkSlots(r.Head)
	for _, l := range r.Body {
		switch l.Kind {
		case ast.LitPos:
			rp.positives = append(rp.positives, litPlan{
				pred: l.Atom.Pred, idb: in.idb[l.Atom.Pred], level: in.idb[l.Atom.Pred], slots: mkSlots(l.Atom)})
		case ast.LitNeg:
			rp.negatives = append(rp.negatives, litPlan{
				pred: l.Atom.Pred, idb: in.idb[l.Atom.Pred], slots: mkSlots(l.Atom)})
		case ast.LitEq:
			rp.cmps = append(rp.cmps, cmpPlan{left: mkSlot(l.Left), right: mkSlot(l.Right)})
		case ast.LitNeq:
			rp.cmps = append(rp.cmps, cmpPlan{neq: true, left: mkSlot(l.Left), right: mkSlot(l.Right)})
		}
	}
	rp.components()
	rp.variants = make([]atomic.Pointer[rulePlan], len(rp.negatives)+1)
	return rp
}
