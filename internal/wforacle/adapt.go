package wforacle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Atoms names every tuple of rels as a ground atom, constants named
// through u: the form the oracle's models take.
func Atoms(u *relation.Universe, rels map[string]*relation.Relation) map[string]bool {
	keys := map[string]bool{}
	for pred, r := range rels {
		r.Each(func(t relation.Tuple) bool {
			keys[Key(pred, names(u, t))] = true
			return true
		})
	}
	return keys
}

// Input converts a database held as relations into the oracle's input:
// u's constants as the domain, the relations of rels that are not IDB
// predicates of prog as the facts.  Conversion only: the oracle sees
// strings.
func Input(prog *ast.Program, u *relation.Universe, rels map[string]*relation.Relation) (domain []string, facts map[string][][]string) {
	idb := prog.IDB()
	facts = map[string][][]string{}
	for pred, r := range rels {
		if idb[pred] {
			continue
		}
		r.Each(func(t relation.Tuple) bool {
			facts[pred] = append(facts[pred], names(u, t))
			return true
		})
	}
	return u.Names(), facts
}

func names(u *relation.Universe, t relation.Tuple) []string {
	args := make([]string, len(t))
	for i, id := range t {
		args[i] = u.Name(id)
	}
	return args
}

// Diff lists, sorted, the atoms only one of got (the evaluator's) and
// want (the oracle's) holds, part naming what the sets are; "" when
// they agree.
func Diff(part string, got, want map[string]bool) string {
	var diffs []string
	for a := range got {
		if !want[a] {
			diffs = append(diffs, fmt.Sprintf("%s is %s only for the evaluator", a, part))
		}
	}
	for a := range want {
		if !got[a] {
			diffs = append(diffs, fmt.Sprintf("%s is %s only for the oracle", a, part))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

// Compare hands Solve the EDB relations among rels (names from u, whose
// constants are the domain) and compares its answer with a three-valued
// model held as relations.  It returns "" when they agree and the
// differing atoms otherwise.
func Compare(prog *ast.Program, u *relation.Universe, rels, isTrue, possible map[string]*relation.Relation) string {
	domain, facts := Input(prog, u, rels)
	lower, upper := Solve(prog, domain, facts)
	var diffs []string
	for _, d := range []string{Diff("true", Atoms(u, isTrue), lower), Diff("possible", Atoms(u, possible), upper)} {
		if d != "" {
			diffs = append(diffs, d)
		}
	}
	return strings.Join(diffs, "; ")
}
