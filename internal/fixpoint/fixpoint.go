// Package fixpoint answers the decision problems of Section 3 of the
// paper for a concrete (π, D): does a fixpoint exist (Theorem 1's
// NP-complete problem), is it unique (Theorem 2's US-complete
// problem), does a least fixpoint exist (Theorem 3's problem between
// US and FO^NP), and what are the fixpoints.
//
// The primary implementation grounds the fixpoint condition to a
// propositional completion (package ground) and runs the CDCL solver
// (package sat): satisfiability ⇔ fixpoint existence, projected model
// enumeration ⇔ fixpoint enumeration, and the Theorem 3 criterion —
// a least fixpoint exists iff the coordinatewise intersection of all
// fixpoints is itself a fixpoint — is decided by enumerate-and-check.
// A brute-force subset enumerator doubles as a test oracle.
package fixpoint

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ground"
	"repro/internal/sat"
)

// maxFixpoints caps the enumeration of Count (with limit 0) and Least.
var maxFixpoints = 100000

// Exists reports whether (π, D) has a fixpoint and returns one if so.
func Exists(in *engine.Instance) (bool, engine.State, error) {
	comp, err := ground.Complete(in)
	if err != nil {
		return false, nil, err
	}
	solver := sat.FromFormula(comp.Formula)
	if solver.Solve() != sat.Sat {
		return false, nil, nil
	}
	st := comp.StateOfSlice(solver.Model())
	if !in.IsFixpoint(st) {
		return false, nil, fmt.Errorf("fixpoint: internal error: SAT model is not a fixpoint")
	}
	return true, st, nil
}

// Enumerate calls fn for every fixpoint of (π, D) (up to limit when
// limit > 0); it reports the number visited and whether the
// enumeration was exhaustive.  fn may be nil; returning false stops
// early.
func Enumerate(in *engine.Instance, limit int, fn func(engine.State) bool) (int, bool, error) {
	comp, err := ground.Complete(in)
	if err != nil {
		return 0, false, err
	}
	solver := sat.FromFormula(comp.Formula)
	count, complete := solver.EnumerateProjected(comp.AtomVars(), limit, func(m map[int]bool) bool {
		if fn == nil {
			return true
		}
		return fn(comp.StateOf(m))
	})
	return count, complete, nil
}

// Count returns the number of fixpoints of (π, D), counting at most
// limit (0 = exact up to maxFixpoints); exact reports whether the
// returned count is the true total.
func Count(in *engine.Instance, limit int) (int, bool, error) {
	if limit == 0 {
		limit = maxFixpoints
	}
	return Enumerate(in, limit, nil)
}

// Unique reports whether (π, D) has exactly one fixpoint, returning it
// when so (Theorem 2's decision problem).
func Unique(in *engine.Instance) (bool, engine.State, error) {
	var first engine.State
	count, _, err := Enumerate(in, 2, func(s engine.State) bool {
		if first == nil {
			first = s
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	if count == 1 {
		return true, first, nil
	}
	return false, nil, nil
}

// LeastResult is the outcome of the least-fixpoint analysis.
type LeastResult struct {
	// Exists reports whether a least fixpoint exists.
	Exists bool
	// State is the least fixpoint when Exists.
	State engine.State
	// NumFixpoints is the total number of fixpoints enumerated.
	NumFixpoints int
	// Intersection is the coordinatewise intersection of all
	// fixpoints (meaningful when NumFixpoints > 0).
	Intersection engine.State
}

// Least decides least-fixpoint existence by the paper's Theorem 3
// criterion: enumerate all fixpoints, intersect coordinatewise, and
// check whether the intersection is itself a fixpoint.  It fails if
// there are more fixpoints than the enumeration cap (the exponential
// cost is the point of Theorem 3).
func Least(in *engine.Instance) (*LeastResult, error) {
	var inter engine.State
	count, complete, err := Enumerate(in, maxFixpoints, func(s engine.State) bool {
		if inter == nil {
			inter = s.Clone()
			return true
		}
		for pred, rel := range inter {
			inter[pred] = rel.Intersect(s[pred])
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if !complete {
		return nil, fmt.Errorf("fixpoint: more than %d fixpoints", maxFixpoints)
	}
	res := &LeastResult{NumFixpoints: count, Intersection: inter}
	if count == 0 {
		return res, nil
	}
	if in.IsFixpoint(inter) {
		res.Exists = true
		res.State = inter
	}
	return res, nil
}

// --- brute-force oracle -------------------------------------------------

// EnumerateBrute enumerates fixpoints by trying every subset of the
// ground-atom space — exponential, usable only for tiny instances, and
// kept as the independent oracle the SAT path is validated against.
// It returns the number of fixpoints, or an error if the atom space
// exceeds 24 atoms.
func EnumerateBrute(in *engine.Instance, fn func(engine.State) bool) (int, error) {
	type atom struct {
		pred string
		t    []int
	}
	var atoms []atom
	n := in.Universe().Size()
	for _, pred := range in.IDBPreds() {
		k := in.Arity(pred)
		count := 1
		for i := 0; i < k; i++ {
			count *= n
		}
		tuple := make([]int, k)
		var rec func(int)
		rec = func(pos int) {
			if pos == k {
				t := make([]int, k)
				copy(t, tuple)
				atoms = append(atoms, atom{pred, t})
				return
			}
			for v := 0; v < n; v++ {
				tuple[pos] = v
				rec(pos + 1)
			}
		}
		rec(0)
	}
	if len(atoms) > 24 {
		return 0, fmt.Errorf("fixpoint: brute force over %d atoms is infeasible", len(atoms))
	}
	count := 0
	for mask := 0; mask < 1<<len(atoms); mask++ {
		s := in.NewState()
		for i, a := range atoms {
			if mask&(1<<i) != 0 {
				s[a.pred].Add(a.t)
			}
		}
		if in.IsFixpoint(s) {
			count++
			if fn != nil && !fn(s) {
				return count, nil
			}
		}
	}
	return count, nil
}
