package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

// Differential property test of the dedup path: every semantics ×
// workers {1,N} must be bit-exact — state AND stats — with naive,
// single-worker evaluation, which re-derives every round from scratch
// and never shards.  The race Makefile/CI target runs this package, so
// the whole matrix also executes under -race.

var genVars = []string{"X", "Y", "Z", "W"}

type genPred struct {
	name  string
	arity int
	layer int // 0 = EDB
}

func randRule(rng *rand.Rand, head genPred, pos, neg []genPred) string {
	randVar := func() string { return genVars[rng.Intn(len(genVars))] }
	atom := func(p genPred) (string, []string) {
		args := make([]string, p.arity)
		for i := range args {
			if rng.Intn(8) == 0 {
				args[i] = fmt.Sprint(rng.Intn(3))
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

// randProgram generates a safe program: semipositive when layers == 1
// (valid for every semantics including LFP), stratified with IDB
// negation across layers otherwise.
func randProgram(rng *rand.Rand, layers int) string {
	edb := []genPred{{"E", 2, 0}, {"V", 1, 0}}
	var idb []genPred
	for l := 1; l <= layers; l++ {
		idb = append(idb,
			genPred{fmt.Sprintf("p%d", l), 1 + rng.Intn(2), l},
			genPred{fmt.Sprintf("q%d", l), 2, l})
	}
	var rules []string
	for _, h := range idb {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			var pos, neg []genPred
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
				neg = edb
			}
			rules = append(rules, randRule(rng, h, pos, neg))
		}
	}
	return strings.Join(rules, "\n")
}

func randDB(rng *rand.Rand, n int) *relation.Database {
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

// checkDedupMatrix evaluates src on db under sem with one worker and
// with nw, and compares both with naive single-worker evaluation.
func checkDedupMatrix(t *testing.T, src string, db func() *relation.Database, sem Semantics, nw int) {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("unparsable program:\n%s\n%v", src, err)
	}
	want, err := EvalOpts(prog, db(), sem, semantics.Naive, engine.Options{Workers: 1})
	if err != nil {
		t.Fatalf("%v oracle: %v\n%s", sem, err, src)
	}
	for _, w := range []int{1, nw} {
		got, err := EvalOpts(prog, db(), sem, semantics.SemiNaive, engine.Options{Workers: w})
		if err != nil {
			t.Fatalf("%v workers=%d: %v\n%s", sem, w, err, src)
		}
		ctx := fmt.Sprintf("%v workers=%d\nprogram:\n%s", sem, w, src)
		if !got.State.Equal(want.State) {
			t.Fatalf("%s:\nstates differ\ngot:\n%swant:\n%s", ctx,
				got.State.Format(got.Universe), want.State.Format(want.Universe))
		}
		if got.Stats != want.Stats {
			t.Fatalf("%s:\nstats differ: got %+v want %+v", ctx, got.Stats, want.Stats)
		}
		if want.WF != nil && (got.WF == nil || !got.WF.Possible.Equal(want.WF.Possible)) {
			t.Fatalf("%s:\nwell-founded possible parts differ", ctx)
		}
	}
}

// TestPropDedupMatrixBitExact checks that neither the worker count nor
// the inline floor can change an answer: they only change where a
// tuple is derived.  Random programs on small databases run every pass
// inline; the transitive closure of a sparse 120-vertex graph has
// deltas on both sides of engine.InlineFloor, so its evaluations switch
// between inline and pooled passes.
func TestPropDedupMatrixBitExact(t *testing.T) {
	nw := runtime.GOMAXPROCS(0)
	if nw < 2 {
		nw = 8 // oversubscribe: scheduling must not matter
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x51ed))
		layers := 1 + int(seed)%3
		src := randProgram(rng, layers)
		dbN := 4 + rng.Intn(3)
		sems := []Semantics{Inflationary, Stratified, WellFounded}
		if layers == 1 {
			sems = append(sems, LFP)
		}
		for _, sem := range sems {
			checkDedupMatrix(t, src, func() *relation.Database { return randDB(rand.New(rand.NewSource(seed)), dbN) }, sem, nw)
		}
	}

	graph := graphs.Random(rand.New(rand.NewSource(42)), 120, 0.03)
	for _, sem := range []Semantics{Inflationary, LFP, Stratified, WellFounded} {
		checkDedupMatrix(t, "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).", func() *relation.Database { return graph.Database() }, sem, nw)
	}
}
