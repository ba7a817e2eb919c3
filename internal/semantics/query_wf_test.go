package semantics_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parser"
	"repro/internal/semantics"
)

// TestPropMagicQueryMatchesFullWellFounded: under the well-founded
// semantics a stratifiable program's point queries take the stratified
// magic path, and over random stratifiable programs, databases and
// queries their answers must equal the model of the alternating
// fixpoint, filtered to the query pattern.
func TestPropMagicQueryMatchesFullWellFounded(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x3f0d))
		src, idb := semantics.RandQueryProgram(rng, 1+rng.Intn(3))
		prog, err := parser.Program(src)
		if err != nil {
			t.Fatalf("seed %d: unparsable program:\n%s\n%v", seed, src, err)
		}
		n := 4 + rng.Intn(2)
		db := semantics.RandQueryDB(rng, n)

		in := engine.MustNew(prog, db.Clone())
		full := semantics.WellFounded(in)
		if !full.Total() {
			t.Fatalf("seed %d: the well-founded model of a stratifiable program is not total\n%s", seed, src)
		}
		for qi := 0; qi < 3; qi++ {
			q := semantics.RandQuery(rng, idb, n)
			want := semantics.NameTuples(semantics.FilterPattern(full.True[q.Pred], q, in.Universe()), in.Universe())
			res, err := core.Query(prog, db, q, core.WellFounded)
			if err != nil {
				t.Fatalf("seed %d query %s: %v\n%s", seed, q, err, src)
			}
			if got := semantics.NameTuples(res.Tuples, res.Universe); !slices.Equal(got, want) {
				t.Fatalf("seed %d query %s: answers differ\nprogram:\n%s\ngot  %v\nwant %v", seed, q, src, got, want)
			}
		}
	}
}
