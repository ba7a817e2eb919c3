package semantics

import (
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
)

const tcLeftSrc = "s(X,Y) :- E(X,Y).\ns(X,Y) :- s(X,Z), E(Z,Y)."

// nameTuples renders a relation as sorted name-tuples, the
// universe-independent comparison form: two relations over different
// universes hold the same facts iff their nameTuples are equal.
func nameTuples(rel *relation.Relation, u *relation.Universe) []string {
	var out []string
	for _, t := range rel.Tuples() {
		s := ""
		for i, v := range t {
			if i > 0 {
				s += ","
			}
			s += u.Name(v)
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func sameTuples(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryLFPPointQuery(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	db := graphs.Path(16).Database()

	res, err := QueryLFP(prog, db, magic.MustParseQuery("s(v3, ?)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.Len() != 12 { // v3 reaches v4..v15
		t.Fatalf("|s(v3,?)| = %d, want 12", res.Tuples.Len())
	}
	// Demand-driven: far fewer tuples derived than the full closure.
	if full := 16 * 15 / 2; res.Stats.Tuples >= full {
		t.Fatalf("magic evaluation derived %d tuples, full closure is %d", res.Stats.Tuples, full)
	}

	// Bit-exact against full evaluation + filter.
	fullRes, err := LeastFixpoint(engine.MustNew(prog, db.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	want := nameTuples(FilterPattern(fullRes.State["s"], magic.MustParseQuery("s(v3, ?)"), fullRes.Universe), fullRes.Universe)
	got := nameTuples(res.Tuples, res.Universe)
	if !sameTuples(got, want) {
		t.Fatalf("answers differ:\ngot  %v\nwant %v", got, want)
	}
}

func TestQueryStratifiedWithNegation(t *testing.T) {
	src := `
s1(X,Y) :- E(X,Y).
s1(X,Y) :- s1(X,Z), E(Z,Y).
unreach(X,Y) :- V(X), V(Y), !s1(X,Y).
`
	prog := parser.MustProgram(src)
	db := graphs.Path(8).Database()
	for i := 0; i < 8; i++ {
		db.AddFact("V", graphs.VertexName(i))
	}

	q := magic.MustParseQuery("unreach(v5, ?)")
	res, err := QueryStratified(prog, db, q)
	if err != nil {
		t.Fatal(err)
	}
	fullRes, err := Stratified(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	want := nameTuples(FilterPattern(fullRes.State["unreach"], q, fullRes.Universe), fullRes.Universe)
	got := nameTuples(res.Tuples, res.Universe)
	if !sameTuples(got, want) {
		t.Fatalf("answers differ:\ngot  %v\nwant %v", got, want)
	}
	if res.Report == nil {
		t.Fatal("missing rewrite report")
	}
}

func TestQueryEDBDirect(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	db := graphs.Path(4).Database()
	res, err := QueryLFP(prog, db, magic.MustParseQuery("E(v1, ?)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.Len() != 1 {
		t.Fatalf("|E(v1,?)| = %d, want 1", res.Tuples.Len())
	}
	if res.Report != nil {
		t.Fatal("EDB query should not rewrite")
	}
}

func TestQueryUnknownConstantIsEmpty(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	db := graphs.Path(4).Database()
	res, err := QueryLFP(prog, db, magic.MustParseQuery("s(zzz, ?)"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples.Len() != 0 {
		t.Fatalf("query on unknown constant matched %d tuples", res.Tuples.Len())
	}
}

func TestQueryErrors(t *testing.T) {
	prog := parser.MustProgram(tcLeftSrc)
	db := graphs.Path(4).Database()
	if _, err := QueryLFP(prog, db, magic.MustParseQuery("nope(?)")); err == nil {
		t.Fatal("unknown predicate should error")
	}
	if _, err := QueryLFP(prog, db, magic.MustParseQuery("s(?)")); err == nil {
		t.Fatal("arity mismatch should error")
	}
	win := parser.MustProgram("win(X) :- E(X,Y), !win(Y).")
	if _, err := QueryStratified(win, db, magic.MustParseQuery("win(?)")); err == nil {
		t.Fatal("unstratifiable program should error")
	}
	if _, err := QueryLFP(win, db, magic.MustParseQuery("win(?)")); err == nil {
		t.Fatal("general program should be rejected by QueryLFP")
	}
}
