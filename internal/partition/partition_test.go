// Differential property test of partitioned evaluation: over random
// safe programs and databases, every semantics × K ∈ {1,2,4,8} ×
// workers {1,N} × frontier on/off × exchange-filter on/off must be
// bit-exact — state AND stats — with the K=1, single-worker oracle.
// The race Makefile/CI target runs this package, so the whole matrix
// also executes under -race, which checks the coordinator/partition
// happens-before edges for real.
package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/partition"
	"repro/internal/relation"
)

// ---- random safe-program generator (mirrors the semantics package's
// differential-test generator; kept local so the partition tests stay
// self-contained) ----

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

// partitionMatrix is the partition × worker matrix.
func partitionMatrix() []engine.Options {
	nw := runtime.GOMAXPROCS(0)
	if nw < 2 {
		nw = 8 // oversubscribe: scheduling must not matter
	}
	return []engine.Options{
		{Partitions: 1, Workers: 1},
		{Partitions: 2, Workers: 1},
		{Partitions: 2, Workers: nw},
		{Partitions: 4, Workers: 1},
		{Partitions: 4, Workers: nw},
		{Partitions: 8, Workers: nw},
	}
}

// checkMatch asserts got is bit-exact with the oracle: same state, same
// round/tuple/max-delta stats, and for well-founded the same undefined
// part too.
func checkMatch(t *testing.T, src string, sem core.Semantics, k engine.Options, got, want *core.EvalResult) {
	t.Helper()
	ctx := fmt.Sprintf("%v K=%d workers=%d\nprogram:\n%s", sem, k.Partitions, k.Workers, src)
	if !got.State.Equal(want.State) {
		t.Fatalf("%s:\nstates differ\ngot:\n%swant:\n%s", ctx,
			got.State.Format(got.Universe), want.State.Format(want.Universe))
	}
	if got.Stats.Core() != want.Stats.Core() {
		t.Fatalf("%s:\nstats differ: got %+v want %+v", ctx, got.Stats, want.Stats)
	}
	if want.WF != nil {
		if got.WF == nil || !got.WF.Possible.Equal(want.WF.Possible) {
			t.Fatalf("%s:\nwell-founded possible parts differ", ctx)
		}
	}
}

// TestPropPartitionedBitExact is the headline contract: partitioned
// evaluation is indistinguishable from K=1 for all four semantics.
func TestPropPartitionedBitExact(t *testing.T) {
	oracleOpt := engine.Options{Workers: 1, Partitions: 1}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9a7f))
		layers := 1 + int(seed)%3
		src := randProgram(rng, layers)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		db := randDB(rng, 4+rng.Intn(3))

		sems := []core.Semantics{core.Inflationary, core.Stratified, core.WellFounded}
		if layers == 1 {
			sems = append(sems, core.LFP)
		}
		for _, sem := range sems {
			want, err := core.EvalOpts(prog, db, sem, 0, oracleOpt)
			if err != nil {
				t.Fatalf("seed %d %v oracle: %v\n%s", seed, sem, err, src)
			}
			for _, k := range partitionMatrix() {
				got, err := core.EvalOpts(prog, db, sem, 0, k)
				if err != nil {
					t.Fatalf("seed %d %v K=%d: %v\n%s", seed, sem, k.Partitions, err, src)
				}
				checkMatch(t, src, sem, k, got, want)
			}
		}
	}
}

// tcSrc is the canonical transitive-closure program.
const tcSrc = `T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), E(Z,Y).`

// TestPartitionedTC pins the deterministic workload: TC of a random
// graph across the full K sweep, including K larger than the tuple
// variety of small rounds.
func TestPartitionedTC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prog := parser.MustProgram(tcSrc)
	db := relation.NewDatabase()
	const n = 30
	for i := 0; i < n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.08 {
				db.AddFact("E", fmt.Sprint(i), fmt.Sprint(j))
			}
		}
	}
	want, err := core.EvalOpts(prog, db, core.Inflationary, 0, engine.Options{Workers: 1, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4, 8, 16} {
		got, err := core.EvalOpts(prog, db, core.Inflationary, 0, engine.Options{Partitions: k})
		if err != nil {
			t.Fatal(err)
		}
		if !got.State.Equal(want.State) || got.Stats.Core() != want.Stats.Core() {
			t.Fatalf("K=%d: partitioned TC differs (stats got %+v want %+v)", k, got.Stats, want.Stats)
		}
	}
}

// TestPartitionMetrics checks the telemetry a partitioned run leaves
// behind: per-partition tuple counts summing to the state size, and a
// filter that both probes and skips on a TC workload.
func TestPartitionMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog := parser.MustProgram(tcSrc)
	db := relation.NewDatabase()
	const n = 24
	for i := 0; i < n; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.12 {
				db.AddFact("E", fmt.Sprint(i), fmt.Sprint(j))
			}
		}
	}
	before := partition.Snapshot()
	const k = 4
	res, err := core.EvalOpts(prog, db, core.Inflationary, 0, engine.Options{Partitions: k})
	if err != nil {
		t.Fatal(err)
	}
	after := partition.Snapshot()
	if after.Runs != before.Runs+1 {
		t.Fatalf("runs: got %d want %d", after.Runs, before.Runs+1)
	}
	if after.Rounds <= before.Rounds {
		t.Fatalf("no exchange rounds recorded")
	}
	if after.LastPartitions != k {
		t.Fatalf("last partitions: got %d want %d", after.LastPartitions, k)
	}
	var sum int64
	for _, c := range after.LastPartitionTuples {
		sum += c
	}
	if sum != int64(res.State.Total()) {
		t.Fatalf("per-partition tuples sum to %d, state holds %d", sum, res.State.Total())
	}
	if after.FilterProbes <= before.FilterProbes {
		t.Fatalf("prefilter never consulted")
	}
	if after.FilterSkips < before.FilterSkips || after.FilterSkips > after.FilterProbes {
		t.Fatalf("implausible filter tallies: probes %d skips %d", after.FilterProbes, after.FilterSkips)
	}
}

// TestPartitionedUnsafeRule checks partitioning under the paper's
// unsafe-rule support (variables ranging over the whole universe) and
// a non-stratified program under inflationary and well-founded
// semantics — programs the random generator never produces.
func TestPartitionedUnsafeRule(t *testing.T) {
	src := `T(Z) :- !Q(X), !T(W).
Q(X) :- E(X,X).`
	prog := parser.MustProgram(src)
	db := relation.NewDatabase()
	for i := 0; i < 6; i++ {
		db.AddConstant(fmt.Sprint(i))
	}
	db.AddFact("E", "1", "2")
	db.AddFact("E", "3", "3")
	for _, sem := range []core.Semantics{core.Inflationary, core.WellFounded} {
		want, err := core.EvalOpts(prog, db, sem, 0, engine.Options{Workers: 1, Partitions: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.EvalOpts(prog, db, sem, 0, engine.Options{Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		checkMatch(t, src, sem, engine.Options{Partitions: 4}, got, want)
	}
}
