package magic

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

const tcLeftSrc = "s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y)."

func TestParseQuery(t *testing.T) {
	cases := []struct {
		src   string
		pred  string
		adorn string
	}{
		{"s(a, ?)", "s", "bf"},
		{"s(?, b)", "s", "fb"},
		{"s(X, Y)", "s", "ff"},
		{"s(_, _)", "s", "ff"},
		{"p(\"A ?\", 12)", "p", "bb"},
		{"reached", "reached", ""},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.src)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.src, err)
		}
		if q.Pred != c.pred || q.Adornment() != c.adorn {
			t.Errorf("ParseQuery(%q) = %s/%s, want %s/%s", c.src, q.Pred, q.Adornment(), c.pred, c.adorn)
		}
	}
	if q := MustParseQuery("p(\"A ?\", 12)"); !q.Args[0].IsBound || q.Args[0].Const != "A ?" {
		t.Errorf("quoted bound arg = %+v", q.Args[0])
	}
	for _, bad := range []string{"", "s(a", "!s(a,b)", "s(a,b), s(b,c)"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) should fail", bad)
		}
	}
}

func TestRewriteTCLeft(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	rw, err := Rewrite(prog, "s", []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if rw.SeedPred == "" || rw.Answer == "" {
		t.Fatalf("missing seed or answer: %+v", rw)
	}
	if _, err := rw.Program.Stratify(); err != nil {
		t.Fatalf("rewritten program not stratifiable: %v\n%s", err, rw.Program)
	}
	// The left-linear recursive rule passes only the already-bound X
	// sideways, so the magic set stays at the seed: exactly one guard
	// rule per adornment plus the seed rule.
	src := rw.Program.String()
	if !strings.Contains(src, rw.SeedPred) {
		t.Fatalf("seed predicate %s not used by the program:\n%s", rw.SeedPred, src)
	}
	pred, args, err := rw.Seed(MustParseQuery("s(a, ?)"))
	if err != nil || pred != rw.SeedPred || len(args) != 1 || args[0] != "a" {
		t.Fatalf("Seed = %s %v %v", pred, args, err)
	}
}

func TestRewriteCacheableAcrossConstants(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	rw, err := Rewrite(prog, "s", []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	// The rewritten program must not mention any constant beyond the
	// original program's: seeds flow through the extensional seed
	// predicate, so one rewrite serves every query with this adornment.
	orig := make(map[string]bool)
	for _, c := range prog.Constants() {
		orig[c] = true
	}
	for _, c := range rw.Program.Constants() {
		if !orig[c] {
			t.Fatalf("rewritten program mentions constant %q not in the original", c)
		}
	}
	p1, a1, _ := rw.Seed(MustParseQuery("s(a, ?)"))
	p2, a2, _ := rw.Seed(MustParseQuery("s(b, ?)"))
	if p1 != p2 || a1[0] != "a" || a2[0] != "b" {
		t.Fatalf("seeds differ structurally: %s%v vs %s%v", p1, a1, p2, a2)
	}
}

func TestRewriteStratifiedNegationFullSet(t *testing.T) {
	// s2 appears under negation in s3's rules, so s2 must be evaluated
	// in full; s1 is purely positive support and is adorned.
	src := `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(X,Y) :- E(X,Y).
s2(X,Y) :- E(X,Z), s2(Z,Y).
s3(X,Y) :- s1(X,Y), !s2(Y,X).
`
	prog := parser.MustProgram(src)
	rw, err := Rewrite(prog, "s3", []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	var full, magicked []string
	for _, d := range rw.Report.Decisions {
		if d.Magic {
			magicked = append(magicked, d.Pred)
		} else {
			full = append(full, d.Pred)
		}
	}
	want := map[string]bool{"s2": true}
	for _, p := range full {
		if !want[p] {
			t.Errorf("predicate %s evaluated in full, want magic", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("predicates %v should be full", want)
	}
	found := false
	for _, p := range magicked {
		if p == "s1" {
			found = true
		}
	}
	if !found {
		t.Errorf("s1 should be adorned; decisions: %+v", rw.Report.Decisions)
	}
	if _, err := rw.Program.Stratify(); err != nil {
		t.Fatalf("rewritten program not stratifiable: %v\n%s", err, rw.Program)
	}
	// The original s2 rules must survive verbatim.
	src2 := rw.Program.String()
	if !strings.Contains(src2, "s2(X,Y) :- E(X,Z), s2(Z,Y).") {
		t.Fatalf("full s2 rules missing:\n%s", src2)
	}
}

func TestRewriteUnstratifiableErrors(t *testing.T) {
	prog := parser.MustProgram("win(X) :- E(X,Y), !win(Y).")
	if _, err := Rewrite(prog, "win", []bool{true}); err == nil {
		t.Fatal("unstratifiable program should be rejected")
	}
}

func TestRewriteAllFreePattern(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	rw, err := Rewrite(prog, "s", []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	// All-free: the magic predicate is propositional (arity 0) and the
	// seed fact is the empty tuple; the rewrite degenerates to the
	// reachable rules guarded by an always-true magic literal.
	pred, args, err := rw.Seed(MustParseQuery("s(?, ?)"))
	if err != nil || pred == "" || len(args) != 0 {
		t.Fatalf("Seed = %s %v %v", pred, args, err)
	}
	if _, err := rw.Program.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteNameCollisions(t *testing.T) {
	// User predicates occupying the generated names must not collide.
	src := `
s_bf(X) :- V(X).
m_s_bf(X) :- V(X).
s(X,Y) :- E(X,Y), s_bf(X), m_s_bf(Y).
s(X,Y) :- s(X,Z), E(Z,Y).
`
	prog := parser.MustProgram(src)
	rw, err := Rewrite(prog, "s", []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Program.Validate(); err != nil {
		t.Fatalf("collision broke validation: %v\n%s", err, rw.Program)
	}
	if _, err := rw.Program.Stratify(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteRejectsNonIDB(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	if _, err := Rewrite(prog, "E", []bool{true, false}); err == nil {
		t.Fatal("EDB predicate should be rejected")
	}
	if _, err := Rewrite(prog, "s", []bool{true}); err == nil {
		t.Fatal("arity mismatch should be rejected")
	}
	if _, err := Rewrite(prog, "nope", []bool{}); err == nil {
		t.Fatal("unknown predicate should be rejected")
	}
}
