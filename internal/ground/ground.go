// Package ground reduces the fixpoint conditions of Section 2 of the
// paper to propositional logic.
//
// For a program π and database D with universe A, a state S̄ is a
// fixpoint of (π, D) iff Θ(S̄) = S̄, which unfolds to one biconditional
// per ground IDB atom a:
//
//	a  ↔  ∨ { body(ρ) : ground instances ρ of rules with head a }
//
// where EDB literals and =/≠ constraints inside body(ρ) are evaluated
// away at grounding time.  The models of this completion are exactly
// the fixpoints of (π, D); satisfiability is the NP search of
// Theorem 1, model uniqueness the US question of Theorem 2, and model
// enumeration + intersection the least-fixpoint criterion of
// Theorem 3.
//
// The encoding factorizes rule bodies by connected components of the
// variables not bound by the head: for the paper's toggle rule
// T(z) ← ¬Q(ū), ¬T(w̄) the naive grounding has |A|^{1+|ū|+|w̄|}
// instances, while the factorized completion is
// T(z) ↔ (∨_ū ¬Q(ū)) ∧ (∨_w̄ ¬T(w̄)) — linear, and shared across all z
// by selector memoization.
package ground

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/cnf"
	"repro/internal/engine"
	"repro/internal/relation"
)

// Atom is a ground IDB atom.
type Atom struct {
	Pred  string
	Tuple relation.Tuple
}

func atomKey(pred string, t relation.Tuple) string { return pred + "/" + t.Key() }

// maxAtoms bounds the number of ground IDB atoms (CNF variables
// before Tseitin auxiliaries); Complete fails beyond it.
var maxAtoms = 200000

// Completion is the propositional encoding of the fixpoint condition
// of (π, D).
type Completion struct {
	Inst    *engine.Instance
	Formula *cnf.Formula

	atoms []Atom // atoms[i] ↔ CNF variable i+1
}

// AtomVars returns the CNF variables of the ground atoms: 1..len(atoms).
func (c *Completion) AtomVars() []int {
	out := make([]int, len(c.atoms))
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// StateOf converts a model (indexed by CNF variable) into the engine
// state it denotes.
func (c *Completion) StateOf(model map[int]bool) engine.State {
	s := c.Inst.NewState()
	for i, a := range c.atoms {
		if model[i+1] {
			s[a.Pred].Add(a.Tuple)
		}
	}
	return s
}

// StateOfSlice is StateOf for slice-shaped models (sat.Solver.Model).
func (c *Completion) StateOfSlice(model []bool) engine.State {
	s := c.Inst.NewState()
	for i, a := range c.atoms {
		if model[i+1] {
			s[a.Pred].Add(a.Tuple)
		}
	}
	return s
}

// --- grounding ----------------------------------------------------------

// gslot is a compiled term: constant id or rule-variable index.
type gslot struct {
	isConst bool
	val     int
}

// glit is a compiled body literal.
type glit struct {
	kind  ast.LitKind
	pred  string // for atoms
	idb   bool
	slots []gslot // for atoms
	left  gslot   // for =/≠
	right gslot
}

func (l glit) vars() []int {
	var out []int
	add := func(s gslot) {
		if !s.isConst {
			out = append(out, s.val)
		}
	}
	switch l.kind {
	case ast.LitPos, ast.LitNeg:
		for _, s := range l.slots {
			add(s)
		}
	default:
		add(l.left)
		add(l.right)
	}
	return out
}

// grounder carries the state of one Complete call.
type grounder struct {
	in      *engine.Instance
	b       *cnf.Builder
	n       int // universe size
	varOf   map[string]int
	atoms   []Atom
	andMemo map[string]int
	orMemo  map[string]int
	// disjuncts[v] collects the completed bodies of atom variable v.
	disjuncts map[int][]disjunct
	forced    map[int]bool // atoms with an unconditionally true body
}

// disjunct is one completed rule body: a conjunction of CNF literals.
type disjunct struct{ lits []int }

// Complete grounds the program against the database and returns the
// propositional completion.
func Complete(in *engine.Instance) (*Completion, error) {
	g := &grounder{
		in:        in,
		b:         cnf.NewBuilder(),
		n:         in.Universe().Size(),
		varOf:     make(map[string]int),
		andMemo:   make(map[string]int),
		orMemo:    make(map[string]int),
		disjuncts: make(map[int][]disjunct),
		forced:    make(map[int]bool),
	}

	// Allocate one variable per ground IDB atom, predicates sorted,
	// tuples in lexicographic order, so variables 1..N are atom vars.
	total := 0
	for _, pred := range in.IDBPreds() {
		k := in.Arity(pred)
		count := 1
		for i := 0; i < k; i++ {
			count *= g.n
			if count > maxAtoms {
				return nil, fmt.Errorf("ground: %s/%d yields more than %d ground atoms", pred, k, maxAtoms)
			}
		}
		total += count
		if total > maxAtoms {
			return nil, fmt.Errorf("ground: more than %d ground atoms", maxAtoms)
		}
	}
	for _, pred := range in.IDBPreds() {
		k := in.Arity(pred)
		for _, t := range relation.Full(k, g.n).Tuples() {
			v := g.b.NewVar()
			g.varOf[atomKey(pred, t)] = v
			g.atoms = append(g.atoms, Atom{Pred: pred, Tuple: t})
		}
	}

	// Ground every rule.
	for _, r := range in.Program().Rules {
		if err := g.groundRule(r); err != nil {
			return nil, err
		}
	}

	// Emit the completion constraints.
	for v := 1; v <= len(g.atoms); v++ {
		if g.forced[v] {
			g.b.Unit(v)
			continue
		}
		ds := g.disjuncts[v]
		sels := make([]int, 0, len(ds))
		for _, d := range ds {
			if len(d.lits) == 1 {
				sels = append(sels, d.lits[0])
				continue
			}
			sel, ok := g.memoAnd(d.lits)
			if ok {
				sels = append(sels, sel)
			}
		}
		g.b.IffOr(v, sels...)
	}

	return &Completion{
		Inst:    in,
		Formula: g.builderFormula(),
		atoms:   g.atoms,
	}, nil
}

func (g *grounder) builderFormula() *cnf.Formula { return g.b.Formula() }

// compileRule translates an AST rule into gslots.
func (g *grounder) compileRule(r ast.Rule) (head []gslot, lits []glit, nvars int, headVars []int) {
	vars := r.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	mk := func(t ast.Term) gslot {
		if t.IsVar() {
			return gslot{val: idx[t.Name]}
		}
		id := g.in.Universe().Intern(t.Name)
		return gslot{isConst: true, val: id}
	}
	mks := func(a ast.Atom) []gslot {
		out := make([]gslot, len(a.Args))
		for i, t := range a.Args {
			out[i] = mk(t)
		}
		return out
	}
	head = mks(r.Head)
	for _, l := range r.Body {
		gl := glit{kind: l.Kind}
		switch l.Kind {
		case ast.LitPos, ast.LitNeg:
			gl.pred = l.Atom.Pred
			gl.idb = g.in.IDB(l.Atom.Pred)
			gl.slots = mks(l.Atom)
		default:
			gl.left = mk(l.Left)
			gl.right = mk(l.Right)
		}
		lits = append(lits, gl)
	}
	seen := make(map[int]bool)
	for _, s := range head {
		if !s.isConst && !seen[s.val] {
			seen[s.val] = true
			headVars = append(headVars, s.val)
		}
	}
	sort.Ints(headVars)
	return head, lits, len(vars), headVars
}

// groundRule enumerates the head assignments of one rule and registers
// the factorized disjuncts.
func (g *grounder) groundRule(r ast.Rule) error {
	head, lits, nvars, headVars := g.compileRule(r)
	binding := make([]int, nvars)
	for i := range binding {
		binding[i] = -1
	}

	var rec func(i int) error
	rec = func(i int) error {
		if i == len(headVars) {
			return g.groundWithHead(r, head, lits, binding)
		}
		for v := 0; v < g.n; v++ {
			binding[headVars[i]] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		binding[headVars[i]] = -1
		return nil
	}
	if g.n == 0 && len(headVars) > 0 {
		return nil // empty universe: no ground atoms
	}
	return rec(0)
}

// groundWithHead processes one head assignment: evaluates bound
// literals, factorizes the free ones into variable-connected
// components, and registers the resulting disjunct.
func (g *grounder) groundWithHead(r ast.Rule, head []gslot, lits []glit, binding []int) error {
	// Head tuple and variable.
	ht := make(relation.Tuple, len(head))
	for i, s := range head {
		if s.isConst {
			ht[i] = s.val
		} else {
			ht[i] = binding[s.val]
		}
	}
	hv, ok := g.varOf[atomKey(r.Head.Pred, ht)]
	if !ok {
		return fmt.Errorf("ground: missing atom variable for %s%v", r.Head.Pred, ht)
	}
	if g.forced[hv] {
		return nil // already unconditionally true
	}

	var direct []int // literals fully bound by the head
	free := make([]glit, 0, len(lits))
	for _, l := range lits {
		unbound := false
		for _, v := range l.vars() {
			if binding[v] < 0 {
				unbound = true
				break
			}
		}
		if unbound {
			free = append(free, l)
			continue
		}
		lit, verdict := g.evalBound(l, binding)
		switch verdict {
		case verdictFalse:
			return nil // this head assignment derives nothing via r
		case verdictLit:
			direct = append(direct, lit)
		}
	}

	// Partition free literals into components connected by shared
	// unbound variables.
	comps := components(free, binding)
	sels := make([]int, 0, len(comps))
	for _, comp := range comps {
		sel, verdict := g.componentSelector(comp, binding)
		switch verdict {
		case verdictFalse:
			return nil
		case verdictLit:
			sels = append(sels, sel)
		}
	}

	all := append(append([]int{}, direct...), sels...)
	norm, verdict := normalizeConj(all)
	switch verdict {
	case verdictFalse:
		return nil
	case verdictTrue:
		g.forced[hv] = true
		delete(g.disjuncts, hv)
		return nil
	}
	g.disjuncts[hv] = append(g.disjuncts[hv], disjunct{lits: norm})
	return nil
}

// verdicts for partial evaluation.
type verdict int

const (
	verdictTrue  verdict = iota // literal/conjunction is satisfied
	verdictFalse                // cannot be satisfied
	verdictLit                  // reduces to CNF literal(s)
)

// evalBound evaluates a fully bound literal: EDB and =/≠ literals
// reduce to true/false, IDB literals to a CNF literal.
func (g *grounder) evalBound(l glit, binding []int) (int, verdict) {
	val := func(s gslot) int {
		if s.isConst {
			return s.val
		}
		return binding[s.val]
	}
	switch l.kind {
	case ast.LitEq, ast.LitNeq:
		eq := val(l.left) == val(l.right)
		if eq != (l.kind == ast.LitNeq) {
			return 0, verdictTrue
		}
		return 0, verdictFalse
	default:
		t := make(relation.Tuple, len(l.slots))
		for i, s := range l.slots {
			t[i] = val(s)
		}
		if l.idb {
			v := g.varOf[atomKey(l.pred, t)]
			if l.kind == ast.LitNeg {
				return -v, verdictLit
			}
			return v, verdictLit
		}
		// EDB: consult the database.
		has := false
		if rel := g.in.Database().Relation(l.pred); rel != nil {
			has = rel.Has(t)
		}
		if has != (l.kind == ast.LitNeg) {
			return 0, verdictTrue
		}
		return 0, verdictFalse
	}
}

// components groups free literals by connectivity over unbound
// variables, deterministically (components ordered by first literal).
func components(free []glit, binding []int) [][]glit {
	n := len(free)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := make(map[int]int) // unbound var -> first literal index
	for i, l := range free {
		for _, v := range l.vars() {
			if binding[v] >= 0 {
				continue
			}
			if j, ok := byVar[v]; ok {
				union(i, j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := make(map[int][]glit)
	var order []int
	for i, l := range free {
		root := find(i)
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], l)
	}
	out := make([][]glit, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// componentSelector enumerates the assignments of a component's
// unbound variables and returns a selector literal equivalent to
// "some assignment satisfies the component".
func (g *grounder) componentSelector(comp []glit, binding []int) (int, verdict) {
	// Collect the component's unbound variables.
	varSet := make(map[int]bool)
	for _, l := range comp {
		for _, v := range l.vars() {
			if binding[v] < 0 {
				varSet[v] = true
			}
		}
	}
	vars := make([]int, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Ints(vars)

	conjs := make([][]int, 0, 16)
	seen := make(map[string]bool)
	anyTrue := false

	var rec func(i int)
	rec = func(i int) {
		if anyTrue {
			return
		}
		if i == len(vars) {
			var lits []int
			for _, l := range comp {
				lit, v := g.evalBound(l, binding)
				switch v {
				case verdictFalse:
					return
				case verdictLit:
					lits = append(lits, lit)
				}
			}
			norm, v := normalizeConj(lits)
			switch v {
			case verdictFalse:
				return
			case verdictTrue:
				anyTrue = true
				return
			}
			key := conjKey(norm)
			if !seen[key] {
				seen[key] = true
				conjs = append(conjs, norm)
			}
			return
		}
		for val := 0; val < g.n; val++ {
			binding[vars[i]] = val
			rec(i + 1)
			if anyTrue {
				break
			}
		}
		binding[vars[i]] = -1
	}
	rec(0)
	// Restore bindings (rec already resets, but be safe on early exit).
	for _, v := range vars {
		binding[v] = -1
	}

	if anyTrue {
		return 0, verdictTrue
	}
	if len(conjs) == 0 {
		return 0, verdictFalse
	}
	// Build the OR of ANDs, memoized.
	disj := make([]int, 0, len(conjs))
	for _, conj := range conjs {
		if len(conj) == 1 {
			disj = append(disj, conj[0])
			continue
		}
		sel, ok := g.memoAnd(conj)
		if ok {
			disj = append(disj, sel)
		}
	}
	sort.Ints(disj)
	disj = dedupeSorted(disj)
	if tautology(disj) {
		return 0, verdictTrue
	}
	if len(disj) == 1 {
		return disj[0], verdictLit
	}
	return g.memoOr(disj), verdictLit
}

// normalizeConj sorts, dedupes, and checks a conjunction of literals.
func normalizeConj(lits []int) ([]int, verdict) {
	if len(lits) == 0 {
		return nil, verdictTrue
	}
	sorted := append([]int{}, lits...)
	sort.Ints(sorted)
	sorted = dedupeSorted(sorted)
	if tautology(sorted) { // l and ¬l in a conjunction: contradiction
		return nil, verdictFalse
	}
	return sorted, verdictLit
}

func dedupeSorted(lits []int) []int {
	out := lits[:0]
	for i, l := range lits {
		if i == 0 || l != lits[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// tautology reports whether a sorted literal list contains both l and
// -l.
func tautology(sorted []int) bool {
	set := make(map[int]bool, len(sorted))
	for _, l := range sorted {
		if set[-l] {
			return true
		}
		set[l] = true
	}
	return false
}

func conjKey(lits []int) string {
	var sb strings.Builder
	for _, l := range lits {
		sb.WriteString(strconv.Itoa(l))
		sb.WriteByte(',')
	}
	return sb.String()
}

// memoAnd returns a selector variable for the conjunction (sorted,
// deduped, non-contradictory); ok=false means the conjunction was
// empty.
func (g *grounder) memoAnd(lits []int) (int, bool) {
	if len(lits) == 0 {
		return 0, false
	}
	if len(lits) == 1 {
		return lits[0], true
	}
	key := "A" + conjKey(lits)
	if v, ok := g.andMemo[key]; ok {
		return v, true
	}
	v := g.b.AndN(lits...)
	g.andMemo[key] = v
	return v, true
}

// memoOr returns a selector variable for the disjunction (sorted,
// deduped, non-tautological, len ≥ 2).
func (g *grounder) memoOr(lits []int) int {
	key := "O" + conjKey(lits)
	if v, ok := g.orMemo[key]; ok {
		return v
	}
	v := g.b.OrN(lits...)
	g.orMemo[key] = v
	return v
}
