// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat lineage: two-watched-literal propagation,
// first-UIP conflict analysis with backjumping, exponential
// VSIDS-style variable activities with a heap-ordered decision queue,
// phase saving, and Luby-sequence restarts.
//
// The solver is the substrate for the NP side of the paper's results:
// fixpoint existence for a fixed DATALOG¬ program is NP-complete
// (Theorem 1), and the ground package reduces "does (π, D) have a
// fixpoint?" to satisfiability of the grounding's completion, which
// this solver decides.  Model enumeration (with projection and
// blocking clauses) powers the unique-fixpoint (Theorem 2) and
// least-fixpoint (Theorem 3) analyses.
//
// Literals use the DIMACS convention at the API boundary: variable v
// is the positive literal +v, its negation -v; variables are created
// with NewVar and numbered from 1.
package sat

import "fmt"

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Internal literal encoding: lit = 2*v for +v, 2*v+1 for -v.
type lit int32

func toLit(ext int) lit {
	if ext < 0 {
		return lit(-ext*2 + 1)
	}
	return lit(ext * 2)
}

func (l lit) variable() int32 { return int32(l) >> 1 }
func (l lit) negated() bool   { return l&1 == 1 }
func (l lit) not() lit        { return l ^ 1 }

func (l lit) ext() int {
	if l.negated() {
		return -int(l.variable())
	}
	return int(l.variable())
}

// clause stores literals with the two watched literals in positions 0
// and 1.
type clause struct {
	lits   []lit
	learnt bool
}

// value of an assignment cell.
const (
	vUndef int8 = -1
	vFalse int8 = 0
	vTrue  int8 = 1
)

// Solver is a CDCL SAT solver.  The zero value is not usable; create
// solvers with NewSolver.
type Solver struct {
	nVars   int
	clauses []*clause
	watches [][]*clause // indexed by lit

	assign   []int8 // per var
	level    []int32
	reason   []*clause
	polarity []bool // saved phase per var

	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     *varHeap

	seen []bool // scratch for analyze

	ok        bool
	model     []bool // last satisfying assignment, per var
	haveModel bool

	// Statistics.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
}

// NewSolver returns an empty, satisfiable solver.
func NewSolver() *Solver {
	s := &Solver{ok: true, varInc: 1}
	s.heap = newVarHeap(&s.activity)
	// Index 0 is unused (variables start at 1).
	s.assign = append(s.assign, vUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar introduces a fresh variable and returns its index (≥ 1).
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.assign = append(s.assign, vUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(int32(v))
	return v
}

func (s *Solver) litValue(l lit) int8 {
	a := s.assign[l.variable()]
	if a == vUndef {
		return vUndef
	}
	if (a == vTrue) == !l.negated() {
		return vTrue
	}
	return vFalse
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over DIMACS-style literals.  It may be
// called between Solve calls (the solver backtracks to the root
// level).  It reports false once the formula is unsatisfiable at the
// root.
func (s *Solver) AddClause(ext ...int) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	s.haveModel = false

	// Normalize: sort-free dedupe, tautology and root-false filtering.
	seen := make(map[lit]bool, len(ext))
	lits := make([]lit, 0, len(ext))
	for _, e := range ext {
		if e == 0 {
			panic("sat: literal 0 in clause")
		}
		v := e
		if v < 0 {
			v = -v
		}
		if v > s.nVars {
			panic(fmt.Sprintf("sat: literal %d references unknown variable (have %d)", e, s.nVars))
		}
		l := toLit(e)
		if seen[l.not()] {
			return true // tautology
		}
		if seen[l] {
			continue
		}
		switch s.litValue(l) {
		case vTrue:
			return true // satisfied at root
		case vFalse:
			continue // dropped
		}
		seen[l] = true
		lits = append(lits, l)
	}

	switch len(lits) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(lits[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	default:
		c := &clause{lits: lits}
		s.clauses = append(s.clauses, c)
		s.attach(c)
		return true
	}
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].not()] = append(s.watches[c.lits[0].not()], c)
	s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], c)
}

func (s *Solver) uncheckedEnqueue(l lit, from *clause) {
	v := l.variable()
	if l.negated() {
		s.assign[v] = vFalse
	} else {
		s.assign[v] = vTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause
// or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Propagations++

		ws := s.watches[p]
		s.watches[p] = s.watches[p][:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Make sure the false literal is lits[1].
			if c.lits[0] == p.not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the other watch is true, the clause is satisfied.
			if s.litValue(c.lits[0]) == vTrue {
				s.watches[p] = append(s.watches[p], c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].not()] = append(s.watches[c.lits[1].not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			s.watches[p] = append(s.watches[p], c)
			if s.litValue(c.lits[0]) == vFalse {
				// Conflict: restore remaining watchers and report.
				s.watches[p] = append(s.watches[p], ws[i+1:]...)
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(c.lits[0], c)
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]lit, int) {
	learnt := []lit{0} // placeholder for the asserting literal
	pathC := 0
	var p lit
	haveP := false
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			if haveP && q == p {
				continue // the literal being resolved on
			}
			v := q.variable()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		haveP = true
		idx--
		s.seen[p.variable()] = false
		pathC--
		if pathC <= 0 {
			learnt[0] = p.not()
			break
		}
		confl = s.reason[p.variable()]
	}

	// Backjump level: second-highest level in the learnt clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].variable()] > s.level[learnt[maxI].variable()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].variable()])
	}

	for _, l := range learnt {
		s.seen[l.variable()] = false
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) decayActivities() { s.varInc /= 0.95 }

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.variable()
		s.polarity[v] = !l.negated()
		s.assign[v] = vUndef
		s.reason[v] = nil
		s.heap.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the unassigned variable with the highest
// activity, or 0 if all variables are assigned.
func (s *Solver) pickBranchVar() int32 {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assign[v] == vUndef {
			return v
		}
	}
	return 0
}

// luby computes the i-th element (1-based) of the Luby restart
// sequence 1,1,2,1,1,2,4,… scaled by base.
func luby(base int64, i int64) int64 {
	// Find the finite subsequence containing i, then recurse.
	var k, size int64 = 1, 1
	for size < i+1 {
		k++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		k--
		i = i % size
	}
	return base << (k - 1)
}

// Solve runs the CDCL search, returning Sat or Unsat.  After Sat, the
// model is available via Model and Value; additional clauses may be
// added and Solve called again (the enumeration workflow).
func (s *Solver) Solve() Status {
	if !s.ok {
		return Unsat
	}
	if c := s.propagate(); c != nil {
		s.ok = false
		return Unsat
	}

	for restart := int64(0); ; restart++ {
		limit := luby(100, restart)
		s.Restarts++
		status := s.search(limit)
		if status != Unknown {
			if status == Sat {
				s.model = make([]bool, s.nVars+1)
				for v := 1; v <= s.nVars; v++ {
					s.model[v] = s.assign[v] == vTrue
				}
				s.haveModel = true
				s.cancelUntil(0)
			}
			return status
		}
	}
}

// search runs until a verdict, or until conflicts exceed limit
// (triggering a restart), in which case it returns Unknown.
func (s *Solver) search(limit int64) Status {
	var conflictsHere int64
	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.clauses = append(s.clauses, c)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			continue
		}
		if conflictsHere >= limit {
			s.cancelUntil(0)
			return Unknown
		}
		v := s.pickBranchVar()
		if v == 0 {
			return Sat
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := lit(v * 2)
		if !s.polarity[v] {
			l = l.not()
		}
		s.uncheckedEnqueue(l, nil)
	}
}

// Value reports the truth value of variable v in the last model.  It
// panics if no model is available.
func (s *Solver) Value(v int) bool {
	if !s.haveModel {
		panic("sat: Value called without a model")
	}
	return s.model[v]
}

// Model returns the last satisfying assignment indexed by variable
// (entry 0 unused), or nil if none is available.
func (s *Solver) Model() []bool {
	if !s.haveModel {
		return nil
	}
	out := make([]bool, len(s.model))
	copy(out, s.model)
	return out
}
