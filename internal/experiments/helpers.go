package experiments

import (
	"math/rand"

	"repro/internal/relation"
)

// relationDatabase aliases relation.Database for brevity in experiment
// code.
type relationDatabase = relation.Database

func newDB() *relation.Database { return relation.NewDatabase() }

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
