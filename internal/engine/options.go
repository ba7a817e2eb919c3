// options.go — the configuration of one evaluation.
//
// Options is a plain value: NewWith binds it to an Instance, and the
// higher layers (core.EvalOpts, semantics.StratifiedOpts, incr.NewWith,
// server.Config) pass the same value to every instance they construct.
// Nothing else configures the engine; the inline floor, intra-rule
// sharding and the planner decide from the sizes they observe.
package engine

import (
	"runtime"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Options configures one engine instance (and, threaded through the
// higher layers, one evaluation, query, maintainer, or server).  The
// zero value evaluates on GOMAXPROCS workers.
type Options struct {
	// Workers is the Θ evaluation worker-pool size; 0 means GOMAXPROCS.
	Workers int
}

// NewWith is New with options bound: the one constructor every
// option-threading layer funnels into.
func NewWith(prog *ast.Program, db *relation.Database, o Options) (*Instance, error) {
	in, err := New(prog, db)
	if err != nil {
		return nil, err
	}
	in.opts = o
	return in, nil
}

// Workers returns the worker-pool size: Options.Workers, else
// runtime.GOMAXPROCS(0).
func (in *Instance) Workers() int {
	if in.opts.Workers > 0 {
		return in.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}
