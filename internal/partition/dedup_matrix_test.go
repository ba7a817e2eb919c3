// Differential property test of the dedup-path toggles: over random
// safe programs and databases, every semantics × frontier-filter
// on/off × workers {1,N} × partitions {1,4} must be bit-exact — state
// AND core stats — with the exact-probe, single-worker, unpartitioned
// oracle.  The race Makefile/CI target
// runs this package, so the whole matrix also executes under -race.
package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
)

// TestPropDedupMatrixBitExact checks that the frontier Bloom prefilter
// cannot change an answer: it only changes how a membership probe is
// answered.
func TestPropDedupMatrixBitExact(t *testing.T) {
	nw := runtime.GOMAXPROCS(0)
	if nw < 2 {
		nw = 8 // oversubscribe: scheduling must not matter
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x51ed))
		layers := 1 + int(seed)%3
		src := randProgram(rng, layers)
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		dbN := 4 + rng.Intn(3)

		sems := []core.Semantics{core.Inflationary, core.Stratified, core.WellFounded}
		if layers == 1 {
			sems = append(sems, core.LFP)
		}
		for _, sem := range sems {
			oracleDB := randDB(rand.New(rand.NewSource(seed)), dbN)
			want, err := core.EvalOpts(prog, oracleDB, sem, 0,
				engine.Options{Workers: 1, Partitions: 1, FrontierFilter: engine.Off})
			if err != nil {
				t.Fatalf("seed %d %v oracle: %v\n%s", seed, sem, err, src)
			}
			db := randDB(rand.New(rand.NewSource(seed)), dbN)
			for _, ff := range []engine.Toggle{engine.Off, engine.On} {
				for _, w := range []int{1, nw} {
					for _, parts := range []int{1, 4} {
						got, err := core.EvalOpts(prog, db, sem, 0,
							engine.Options{Workers: w, Partitions: parts, FrontierFilter: ff})
						if err != nil {
							t.Fatalf("seed %d %v ff=%v w=%d K=%d: %v\n%s", seed, sem, ff, w, parts, err, src)
						}
						ctx := fmt.Sprintf("%v ff=%v workers=%d K=%d\nprogram:\n%s", sem, ff, w, parts, src)
						if !got.State.Equal(want.State) {
							t.Fatalf("%s:\nstates differ\ngot:\n%swant:\n%s", ctx,
								got.State.Format(got.Universe), want.State.Format(want.Universe))
						}
						if got.Stats.Core() != want.Stats.Core() {
							t.Fatalf("%s:\nstats differ: got %+v want %+v", ctx, got.Stats, want.Stats)
						}
						if want.WF != nil && (got.WF == nil || !got.WF.Possible.Equal(want.WF.Possible)) {
							t.Fatalf("%s:\nwell-founded possible parts differ", ctx)
						}
					}
				}
			}
		}
	}
}
