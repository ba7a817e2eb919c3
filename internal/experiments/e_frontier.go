package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/semantics"
)

func init() {
	register(Experiment{
		ID:     "E15",
		Title:  "worker scaling: parallel Θ with intra-rule sharding",
		Source: "engineering (ROADMAP: saturate the hardware; Θ evaluation strategy only)",
		Run:    runE15,
	})
}

// E15Workers is the GOMAXPROCS sweep shared by experiment E15 and
// BenchmarkE15FrontierScaling: 1, powers of two up to GOMAXPROCS, and
// GOMAXPROCS itself.  At least {1, 2} even on a single-core runner, so
// the sharded merge path is always exercised (timings there measure
// overhead, not scaling).
func E15Workers() []int {
	max := runtime.GOMAXPROCS(0)
	ws := []int{1, 2}
	for w := 4; w <= max; w *= 2 {
		ws = append(ws, w)
	}
	if max > 2 && ws[len(ws)-1] != max {
		ws = append(ws, max)
	}
	return ws
}

// runE15 evaluates the 2-rule transitive-closure and the Proposition 2
// distance program under inflationary semantics, sweeping the worker
// pool's width: each row sets GOMAXPROCS and restores it.  The claim
// under test is bit-exactness — the same relations and the same round
// count at every pool size, because per-worker outputs merge by set
// union and shards partition each driver; the speedup column is the
// engineering payoff of intra-rule sharding, which keeps a 2-rule
// program's workers busy once the pool outgrows the rules.
func runE15(w io.Writer, quick bool) error {
	tcN, tcP, distN, distP := 64, 0.06, 14, 0.25
	if quick {
		tcN, tcP, distN, distP = 40, 0.08, 10, 0.25
	}
	cases := []struct {
		name string
		src  string
		db   func() *relation.Database
	}{
		{fmt.Sprintf("tc/G(%d,%.2f)", tcN, tcP), tcSrc,
			func() *relation.Database { return graphs.Random(newRNG(int64(tcN)), tcN, tcP).Database() }},
		{fmt.Sprintf("distance/G(%d,%.2f)", distN, distP), distanceSrc,
			func() *relation.Database { return graphs.Random(newRNG(int64(distN)), distN, distP).Database() }},
	}

	t := newTable(w, "workload", "workers", "tuples", "rounds", "t(1 worker)", "t(workers)", "speedup", "check")
	c := &checker{}
	for _, cs := range cases {
		prog := parser.MustProgram(cs.src)
		db := cs.db()

		run := func(nw int) (*semantics.Result, time.Duration) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nw))
			in := engine.MustNew(prog, db.Clone())
			start := time.Now()
			res := semantics.Inflationary(in)
			return res, time.Since(start)
		}
		want, durRef := run(1)
		for _, nw := range E15Workers() {
			got, dur := run(nw)
			ok := got.State.Equal(want.State) && got.Stats.Rounds == want.Stats.Rounds
			t.row(cs.name, nw, got.Stats.Tuples, got.Stats.Rounds, ms(durRef), ms(dur),
				fmt.Sprintf("%.2fx", float64(durRef)/float64(dur)),
				c.verdict(ok, fmt.Sprintf("%s/workers=%d", cs.name, nw)))
		}
	}
	t.flush()
	fmt.Fprintln(w, "    note: identical relations and rounds at every pool size — workers change")
	fmt.Fprintln(w, "    evaluation cost only.  Speedups need spare cores; on a single-core runner")
	fmt.Fprintln(w, "    the column measures the pool's overhead.")
	return c.err()
}
