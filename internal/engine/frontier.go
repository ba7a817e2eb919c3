// frontier.go — passes that extend a state.
//
// Every fixpoint loop unions each round's derivations into an
// accumulated state, and almost every derivation of a late round is a
// duplicate of what that state already holds.  A pass whose Spec sets
// Into writes into that state itself, reading it through pass-start
// views: an emission goes straight into Into's relation, deduped by its
// key table — one probe, no copy.  What the pass added is the arena
// range past the pass-start lengths, which Eval returns as views
// (Relation.Since): the next round's delta is a range of the state, not
// a relation of its own.
package engine

import "maps"

// atStart returns s with every relation of into it names that a task
// reads from s replaced by a view of the relation as it stands
// (Relation.Since(0)): what a pass appending to into reads of s.  s is
// read by the tasks' positive literals when pos is set and by their
// negated ones when neg is; a literal a task overrides does not read
// it.  When no task reads such a relation, s is returned as it is.
func atStart(s, into State, tasks []evalTask, pos, neg bool) State {
	out, cloned := s, false
	for pred, r := range s {
		if r != into[pred] || !(pos && reads(tasks, pred, false) || neg && reads(tasks, pred, true)) {
			continue
		}
		if !cloned {
			out, cloned = maps.Clone(s), true
		}
		out[pred] = r.Since(0)
	}
	return out
}

// reads reports whether some task has a literal over pred, negated when
// neg is set, that no override replaces: one that reads the Spec's
// state.
func reads(tasks []evalTask, pred string, neg bool) bool {
	for _, t := range tasks {
		lits, over := t.rp.positives, t.pos
		if neg {
			lits, over = t.rp.negatives, t.neg
		}
		for i, l := range lits {
			if l.pred == pred && (i >= len(over) || over[i].Base == nil) {
				return true
			}
		}
	}
	return false
}
