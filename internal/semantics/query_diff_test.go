package semantics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/relation"
)

// Differential property test of the demand-driven query path: over
// random safe programs, databases, and query atoms, the magic-set
// rewritten evaluation must be bit-exact with full evaluation filtered
// to the query pattern — across both semantics entry points and worker
// counts {1, N}.  The CI race job runs this package, so the whole
// matrix also executes under -race.

// diffVars is the variable pool of generated rules.
var diffVars = []string{"X", "Y", "Z", "W"}

// diffPred is one predicate of a generated program.
type diffPred struct {
	name  string
	arity int
	layer int // 0 = EDB
}

// randRule generates one safe rule for head: every head variable
// occurs in a positive body literal.  Positive literals draw from pos,
// negated ones from neg (nil disables negation for this rule).
func randRule(rng *rand.Rand, head diffPred, pos, neg []diffPred) string {
	randVar := func() string { return diffVars[rng.Intn(len(diffVars))] }
	atom := func(p diffPred) (string, []string) {
		args := make([]string, p.arity)
		for i := range args {
			if rng.Intn(8) == 0 {
				args[i] = fmt.Sprint(rng.Intn(3)) // a constant
			} else {
				args[i] = randVar()
			}
		}
		if p.arity == 0 {
			return p.name, nil
		}
		return p.name + "(" + strings.Join(args, ",") + ")", args
	}

	var body []string
	bound := map[string]bool{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		s, args := atom(pos[rng.Intn(len(pos))])
		body = append(body, s)
		for _, a := range args {
			bound[a] = true
		}
	}
	if len(neg) > 0 && rng.Intn(2) == 0 {
		s, _ := atom(neg[rng.Intn(len(neg))])
		body = append(body, "!"+s)
	}
	if rng.Intn(3) == 0 {
		op := "="
		if rng.Intn(2) == 0 {
			op = "!="
		}
		body = append(body, randVar()+" "+op+" "+randVar())
	}

	var boundList []string
	for v := range bound {
		boundList = append(boundList, v)
	}
	sort.Strings(boundList)
	headArgs := make([]string, head.arity)
	for i := range headArgs {
		if len(boundList) > 0 && rng.Intn(8) != 0 {
			headArgs[i] = boundList[rng.Intn(len(boundList))]
		} else {
			headArgs[i] = fmt.Sprint(rng.Intn(3))
		}
	}
	if head.arity == 0 {
		return head.name + " :- " + strings.Join(body, ", ") + "."
	}
	return head.name + "(" + strings.Join(headArgs, ",") + ") :- " + strings.Join(body, ", ") + "."
}

// randQueryProgram generates a random safe program: semipositive
// (negation on EDB only) when layers == 1, stratified with IDB
// negation across layers otherwise.  Layer-i rules use positive
// predicates of layers ≤ i and negate predicates of layers < i, so
// the program stratifies by construction.
func randQueryProgram(rng *rand.Rand, layers int) (string, []diffPred) {
	edb := []diffPred{{"E", 2, 0}, {"V", 1, 0}}
	var idb []diffPred
	for l := 1; l <= layers; l++ {
		idb = append(idb,
			diffPred{fmt.Sprintf("p%d", l), 1 + rng.Intn(2), l},
			diffPred{fmt.Sprintf("q%d", l), 2, l})
	}
	var rules []string
	for _, h := range idb {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			var pos, neg []diffPred
			pos = append(pos, edb...)
			for _, p := range idb {
				if p.layer <= h.layer {
					pos = append(pos, p)
				}
				if p.layer < h.layer {
					neg = append(neg, p)
				}
			}
			neg = append(neg, edb...)
			if layers == 1 {
				neg = edb // semipositive: negate EDB only
			}
			rules = append(rules, randRule(rng, h, pos, neg))
		}
	}
	return strings.Join(rules, "\n"), idb
}

// randQueryDB builds a small random database over constants 0..n-1.
func randQueryDB(rng *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.35 {
				db.AddFact("E", fmt.Sprint(i), fmt.Sprint(j))
			}
		}
		if rng.Intn(2) == 0 {
			db.AddFact("V", fmt.Sprint(i))
		}
	}
	return db
}

// randQuery draws a random query on one of the program's IDB
// predicates; bound positions get constants from the database domain,
// with an occasional unknown constant to exercise the empty path.
func randQuery(rng *rand.Rand, idb []diffPred, n int) magic.Query {
	p := idb[rng.Intn(len(idb))]
	q := magic.Query{Pred: p.name}
	for i := 0; i < p.arity; i++ {
		switch rng.Intn(4) {
		case 0:
			q.Args = append(q.Args, magic.Free())
		case 1:
			q.Args = append(q.Args, magic.Bound("unknown"))
		default:
			q.Args = append(q.Args, magic.Bound(fmt.Sprint(rng.Intn(n))))
		}
	}
	return q
}

func TestPropMagicQueryMatchesFullLFP(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src, idb := randQueryProgram(rng, 1)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		n := 4 + rng.Intn(2)
		db := randQueryDB(rng, n)

		in, err := engine.New(prog, db.Clone())
		if err != nil {
			t.Fatal(err)
		}
		full := Inflationary(in)

		for qi := 0; qi < 3; qi++ {
			q := randQuery(rng, idb, n)
			want := nameTuples(FilterPattern(full.State[q.Pred], q, full.Universe), full.Universe)
			res, err := Query(prog, db, q)
			if err != nil {
				t.Fatalf("seed %d query %s: %v\n%s", seed, q, err, src)
			}
			got := nameTuples(res.Tuples, res.Universe)
			if !sameTuples(got, want) {
				t.Fatalf("seed %d query %s: answers differ\nprogram:\n%s\ngot  %v\nwant %v",
					seed, q, src, got, want)
			}
		}
	}
}

func TestPropMagicQueryMatchesFullStratified(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5717))
		src, idb := randQueryProgram(rng, 2+rng.Intn(2))
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		n := 4 + rng.Intn(2)
		db := randQueryDB(rng, n)

		full, err := Stratified(prog, db)
		if err != nil {
			t.Fatalf("seed %d: full evaluation: %v\n%s", seed, err, src)
		}

		for qi := 0; qi < 3; qi++ {
			q := randQuery(rng, idb, n)
			want := nameTuples(FilterPattern(full.State[q.Pred], q, full.Universe), full.Universe)
			res, err := Query(prog, db, q)
			if err != nil {
				t.Fatalf("seed %d query %s: %v\n%s", seed, q, err, src)
			}
			got := nameTuples(res.Tuples, res.Universe)
			if !sameTuples(got, want) {
				t.Fatalf("seed %d query %s: answers differ\nprogram:\n%s\ngot  %v\nwant %v",
					seed, q, src, got, want)
			}
		}
	}
}
