package wforacle

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Compare hands Solve the EDB relations among rels (names from u, whose
// constants are the domain) and compares its answer with a three-valued
// model held as relations.  It returns "" when they agree and the
// differing atoms otherwise.  Conversion only: Solve sees strings.
func Compare(prog *ast.Program, u *relation.Universe, rels, isTrue, possible map[string]*relation.Relation) string {
	atoms := func(rs map[string]*relation.Relation, keep func(pred string) bool) (map[string][][]string, map[string]bool) {
		tuples, keys := map[string][][]string{}, map[string]bool{}
		for pred, r := range rs {
			if !keep(pred) {
				continue
			}
			r.Each(func(t relation.Tuple) bool {
				args := make([]string, len(t))
				for i, id := range t {
					args[i] = u.Name(id)
				}
				tuples[pred] = append(tuples[pred], args)
				keys[Key(pred, args)] = true
				return true
			})
		}
		return tuples, keys
	}
	idb := prog.IDB()
	facts, _ := atoms(rels, func(pred string) bool { return !idb[pred] })
	lower, upper := Solve(prog, u.Names(), facts)

	all := func(string) bool { return true }
	_, gotTrue := atoms(isTrue, all)
	_, gotPossible := atoms(possible, all)
	var diffs []string
	for _, c := range []struct {
		part      string
		got, want map[string]bool
	}{{"true", gotTrue, lower}, {"possible", gotPossible, upper}} {
		for a := range c.got {
			if !c.want[a] {
				diffs = append(diffs, fmt.Sprintf("%s is %s only for the evaluator", a, c.part))
			}
		}
		for a := range c.want {
			if !c.got[a] {
				diffs = append(diffs, fmt.Sprintf("%s is %s only for the oracle", a, c.part))
			}
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}
