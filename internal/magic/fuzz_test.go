package magic

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

// FuzzMagicRewrite is the native fuzz target for the rewrite: for any
// parsable program and query atom, Rewrite must never panic, and every
// successful rewrite must yield a validated, stratifiable program that
// names no constant the original lacks — the invariant the per-stratum
// negation handling promises.  Rewrite reports a rewrite that breaks
// it as an error, so an accepted rewrite that breaks it is a bug.
//
// Seed corpus: testdata/fuzz/FuzzMagicRewrite.
func FuzzMagicRewrite(f *testing.F) {
	seeds := [][2]string{
		{"s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y).", "s(a, ?)"},
		{"s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).", "s(?, b)"},
		{"sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).", "sg(n3_0, ?)"},
		{"s1(X,Y) :- E(X,Y).\ns1(X,Y) :- E(X,Z), s1(Z,Y).\ns3(X,Y) :- s1(X,Y), !s1(Y,X).", "s3(a, ?)"},
		{"t(X) :- E(Y,X), !t(Y).", "t(?)"},
		{"p(X) :- V(X), X != Y.\nq(X,Y) :- p(X), p(Y), !E(X,Y).", "q(?, ?)"},
		{"zero :- V(X).", "zero"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, progSrc, querySrc string) {
		prog, err := parser.Program(progSrc)
		if err != nil {
			return
		}
		q, err := ParseQuery(querySrc)
		if err != nil {
			return
		}
		rw, err := Rewrite(prog, q.Pred, q.Pattern())
		if err != nil {
			// Rejection (non-IDB predicate, arity mismatch,
			// unstratifiable program) is a valid outcome.
			return
		}
		if _, err := rw.Program.Validate(); err != nil {
			t.Fatalf("rewritten program invalid: %v\nprogram:\n%s\nquery: %s\nrewritten:\n%s",
				err, progSrc, querySrc, rw.Program)
		}
		if _, err := rw.Program.Stratify(); err != nil {
			t.Fatalf("rewritten program unstratifiable: %v\nprogram:\n%s\nquery: %s\nrewritten:\n%s",
				err, progSrc, querySrc, rw.Program)
		}
		if rw.Answer == "" {
			t.Fatalf("rewrite lost the answer predicate\nprogram:\n%s\nquery: %s", progSrc, querySrc)
		}
		// The rewrite must never smuggle query constants into the
		// program — that is what keeps the (predicate, adornment)
		// cache sound.
		seen := make(map[string]bool)
		for _, c := range prog.Constants() {
			seen[c] = true
		}
		for _, c := range rw.Program.Constants() {
			if !seen[c] {
				t.Fatalf("rewritten program mentions new constant %q\nprogram:\n%s\nquery: %s", c, progSrc, querySrc)
			}
		}
		// Seed agreement: a query matching the prepared pattern always
		// yields a seed of the right width.
		_, args, err := rw.Seed(q)
		if err != nil {
			t.Fatalf("Seed failed on the preparing query: %v", err)
		}
		nb := 0
		for _, b := range rw.Pattern {
			if b {
				nb++
			}
		}
		if len(args) != nb {
			t.Fatalf("seed width %d, bound positions %d", len(args), nb)
		}
		if !strings.Contains(rw.Program.String(), rw.SeedPred) {
			t.Fatalf("seed predicate %s unused by the rewritten program", rw.SeedPred)
		}
	})
}
