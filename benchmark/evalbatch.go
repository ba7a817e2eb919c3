// evalbatch.go — the eval-batch workload: no daemon, no HTTP, no WAL.
// A fixed suite of (program, data, semantics) cases is parsed,
// evaluated through the repro facade and checked against the oracle,
// pass after pass.  Parser, relation, engine and semantics do all of
// the work, so an engine change must move this workload and leave the
// daemon workloads' read latency alone.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/relation"
)

const evalBatchName = "eval-batch"

// evalPasses is the number of recorded passes at the default run
// length; every metric is a median over passes.
const evalPasses = 8

const distanceProgram = `s1(X,Y) :- E(X,Y).
s1(X,Y) :- E(X,Z), s1(Z,Y).
s2(Xs,Ys) :- E(Xs,Ys).
s2(Xs,Ys) :- E(Xs,Zs), s2(Zs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Y), !s2(Xs,Ys).
s3(X,Y,Xs,Ys) :- E(X,Z), s1(Z,Y), !s2(Xs,Ys).
`

// evalCase is one op of the suite.
type evalCase struct {
	name    string
	sem     repro.Semantics
	program string
	facts   string
	n       int
	// want maps a predicate to the oracle's digest of its relation.
	want map[string]answer
	// undefined, for a well-founded case, is the oracle's digest of the
	// undefined part of each predicate in want.
	undefined map[string]answer
}

// semName is the suffix of the eval_<semantics>_s metric a case counts
// towards.
func (c *evalCase) semName() string {
	if c.sem == repro.SemanticsWellFounded {
		return "wellfounded"
	}
	return c.sem.String()
}

// evalGraph is a seeded instance of one of the suite's graphs: shape
// from a fixed seed, labels and fact order from the run's seed, for the
// reason generator gives.
func evalGraph(seed, shapeSeed int64, n int, pred string, graph func(*rand.Rand, int) []edge) (edges []edge, facts string) {
	edges = graph(rand.New(rand.NewSource(shapeSeed)), n)
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(n)
	for i, e := range edges {
		edges[i] = edge{label[e.a], label[e.b]}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%s(%s,%s).\n", pred, vname(e.a), vname(e.b))
	}
	return edges, b.String()
}

func whole(r *rel) answer {
	all := make([]int, r.arity)
	for i := range all {
		all[i] = -1
	}
	return r.digest(all)
}

// stratifiedRepeats is how many times a pass evaluates the distance
// program under the stratified semantics.  One evaluation takes 45 ms,
// a fifth of what its well-founded reading takes on the same data, and
// no gated timing may be under 0.2 s.
const stratifiedRepeats = 5

// evalSuite builds the suite and its oracle answers: transitive closure
// on G(480, 0.02), the paper's distance program on G(28, 0.06) and
// win-move on a 3000-position layeredGame board, each under every
// semantics that is defined for it.  The sizes make each semantics'
// share of a pass at least 0.2 s on the reference machine.
func evalSuite(seed int64) []evalCase {
	const tcN, distN, winN = 480, 28, 3000
	tcEdges, tcFacts := evalGraph(seed, 1, tcN, "E", func(rng *rand.Rand, n int) []edge { return randomGraph(rng, n, 0.02) })
	tcWant := map[string]answer{"s": whole(reachability(adjacency(tcN, tcEdges)))}

	dEdges, dFacts := evalGraph(seed, 1, distN, "E", func(rng *rand.Rand, n int) []edge { return randomGraph(rng, n, 0.06) })
	dAdj := adjacency(distN, dEdges)
	inFacts := make([]bool, distN)
	for _, e := range dEdges {
		inFacts[e.a], inFacts[e.b] = true, true
	}
	var universe []int // the constants the program's unsafe variables range over
	for v, ok := range inFacts {
		if ok {
			universe = append(universe, v)
		}
	}
	closure := whole(reachability(dAdj))
	dStrat := map[string]answer{"s1": closure, "s2": closure, "s3": whole(distanceStratified(dAdj, universe))}
	dInfl := map[string]answer{"s1": closure, "s2": closure, "s3": whole(distanceInflationary(dAdj, universe))}

	wEdges, wFacts := evalGraph(seed, 1, winN, "move", layeredGame)
	wAdj := adjacency(winN, wEdges)
	undef := newRel(1, winN)
	for v, val := range winMove(wAdj) {
		if val == gameUndefined {
			undef.add(v)
		}
	}
	none := answer{}

	suite := []evalCase{
		{name: "tc/lfp", sem: repro.SemanticsLFP, program: tcProgram, facts: tcFacts, n: tcN, want: tcWant},
		{name: "tc/inflationary", sem: repro.SemanticsInflationary, program: tcProgram, facts: tcFacts, n: tcN, want: tcWant},
		{name: "distance/inflationary", sem: repro.SemanticsInflationary, program: distanceProgram, facts: dFacts, n: distN, want: dInfl},
		{name: "distance/wellfounded", sem: repro.SemanticsWellFounded, program: distanceProgram, facts: dFacts, n: distN, want: dStrat,
			undefined: map[string]answer{"s1": none, "s2": none, "s3": none}},
		{name: "win/wellfounded", sem: repro.SemanticsWellFounded, program: winProgram, facts: wFacts, n: winN,
			want: map[string]answer{"win": whole(winTrue(wAdj))}, undefined: map[string]answer{"win": whole(undef)}},
		{name: "win/inflationary", sem: repro.SemanticsInflationary, program: winProgram, facts: wFacts, n: winN,
			want: map[string]answer{"win": whole(winInflationary(wAdj))}},
	}
	for i := 0; i < stratifiedRepeats; i++ {
		suite = append(suite, evalCase{name: "distance/stratified", sem: repro.SemanticsStratified,
			program: distanceProgram, facts: dFacts, n: distN, want: dStrat})
	}
	return suite
}

// caseTiming is one op: parse, evaluate, check.
type caseTiming struct {
	parse, eval, total time.Duration
	rounds, tuples     int
}

// digestRelation digests an engine relation through its universe.
func digestRelation(r *relation.Relation, u *relation.Universe, n int) (answer, error) {
	var a answer
	var err error
	for _, t := range r.Tuples() {
		id := 0
		for _, c := range t {
			v, ok := vindex(u.Name(c))
			if !ok || v >= n {
				err = fmt.Errorf("result names an unknown constant %q", u.Name(c))
			}
			id = id*n + v
		}
		a.add(id)
	}
	return a, err
}

// runCase is one op of the suite.
func runCase(c *evalCase) (caseTiming, error) {
	var tm caseTiming
	t0 := time.Now()
	prog, err := repro.ParseProgram(c.program)
	if err != nil {
		return tm, err
	}
	db, err := repro.ParseFacts(c.facts)
	if err != nil {
		return tm, err
	}
	t1 := time.Now()
	res, err := repro.EvalWith(prog, db, c.sem, repro.Options{})
	if err != nil {
		return tm, err
	}
	t2 := time.Now()
	for pred, want := range c.want {
		got, err := digestRelation(res.State[pred], res.Universe, c.n)
		if err != nil {
			return tm, err
		}
		if got != want {
			return tm, fmt.Errorf("%s: %s has %d tuples (digest %x), the oracle %d (digest %x)", c.name, pred, got.n, got.h, want.n, want.h)
		}
	}
	if c.undefined != nil {
		undef := res.WF.Undefined()
		for pred, want := range c.undefined {
			got, err := digestRelation(undef[pred], res.Universe, c.n)
			if err != nil {
				return tm, err
			}
			if got != want {
				return tm, fmt.Errorf("%s: %s has %d undefined tuples, the oracle %d", c.name, pred, got.n, want.n)
			}
		}
	}
	tm.parse, tm.eval, tm.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	tm.rounds, tm.tuples = res.Stats.Rounds, res.Stats.Tuples
	return tm, nil
}

// evalPass is one pass over the suite.
type evalPass struct {
	elapsed time.Duration
	parse   time.Duration
	eval    time.Duration
	bySem   map[string]time.Duration
	rounds  map[string]int // per semantics, summed over its cases
	tuples  map[string]int
	failed  int
	first   error
}

// runPass runs every case once.  With spans set, each op leaves a root
// span and one child per phase.
func runPass(suite []evalCase, spans *spanLog) evalPass {
	p := evalPass{bySem: map[string]time.Duration{}, rounds: map[string]int{}, tuples: map[string]int{}}
	for i := range suite {
		// Start every case from a collected heap, off the clock, so a
		// case's time and the process's peak RSS do not depend on how
		// much garbage the cases before it happened to leave.
		runtime.GC()
		t0 := time.Now()
		tm, err := runCase(&suite[i])
		if err != nil {
			p.failed++
			if p.first == nil {
				p.first = err
			}
			continue
		}
		sem := suite[i].semName()
		p.elapsed += tm.total
		p.parse += tm.parse
		p.eval += tm.eval
		p.bySem[sem] += tm.eval
		p.rounds[sem] += tm.rounds
		p.tuples[sem] += tm.tuples
		if spans != nil {
			t1, t2 := t0.Add(tm.parse), t0.Add(tm.parse+tm.eval)
			root := spans.add("op.eval", t0, t0.Add(tm.total), 0, i)
			spans.add("parser.parse", t0, t1, root, i)
			spans.add("semantics.eval."+sem, t1, t2, root, i)
			spans.add("oracle.check", t2, t0.Add(tm.total), root, i)
		}
	}
	return p
}

// runEvalBatch runs the eval-batch workload.
func runEvalBatch(env *runEnv, seed int64, scale float64, traced bool) (*result, error) {
	var setups []time.Duration
	var suite []evalCase
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		suite = evalSuite(seed)
		if p := runPass(suite, nil); p.failed > 0 {
			return nil, fmt.Errorf("warm-up pass: %w", p.first)
		}
		setups = append(setups, time.Since(start))
	}
	if traced {
		return tracedEvalBatch(env, suite)
	}

	passes := max(5, int(evalPasses*scale+0.5))
	var recorded []evalPass
	res := newResult(0, 0)
	for i := 0; i < passes; i++ {
		p := runPass(suite, nil)
		recorded = append(recorded, p)
		res.Attempted += len(suite)
		res.Failed += p.failed
		if p.first != nil && res.notes["first_failure"] == "" {
			res.note("first_failure", p.first.Error())
			fmt.Fprintf(os.Stderr, "benchmark: FAILED: %v\n", p.first)
		}
	}
	res.Correct = res.Failed == 0

	res.gated("setup_s", medianOf(setups, time.Duration.Seconds))
	res.setUngated("throughput_ops_s", "ops/s", medianOf(recorded, func(p evalPass) float64 {
		return float64(len(suite)-p.failed) / p.elapsed.Seconds()
	}))
	res.setUngated("eval_s", "s", medianOf(recorded, func(p evalPass) float64 { return p.eval.Seconds() }))
	for _, sem := range []string{"lfp", "inflationary", "stratified", "wellfounded"} {
		res.setUngated("eval_"+sem+"_s", "s", medianOf(recorded, func(p evalPass) float64 { return p.bySem[sem].Seconds() }))
	}
	mb, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	res.gated("peak_rss_mb", mb)
	return res, nil
}
