package experiments

import (
	"math/rand"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/relation"
)

// relationDatabase aliases relation.Database for brevity in experiment
// code.
type relationDatabase = relation.Database

func newDB() *relation.Database { return relation.NewDatabase() }

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mustNew is engine.NewWith, panicking on a program that fails
// validation (every experiment program is a fixed, valid one).
func mustNew(prog *ast.Program, db *relation.Database, opt engine.Options) *engine.Instance {
	in, err := engine.NewWith(prog, db, opt)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return in
}
