package main

import (
	"testing"

	"repro/internal/engine"
)

// TestEngineOptions checks that -workers becomes the engine.Options the
// analysed instance is built with.
func TestEngineOptions(t *testing.T) {
	var o options
	if err := newFlags("fixpoint", &o).Parse([]string{"-workers", "3", "-count", "5", "-least"}); err != nil {
		t.Fatal(err)
	}
	if got := o.engineOptions(); got != (engine.Options{Workers: 3}) {
		t.Errorf("engine options = %+v, want Workers 3", got)
	}
	if o.count != 5 || !o.least {
		t.Errorf("analysis flags = %+v", o)
	}
	var dft options
	if err := newFlags("fixpoint", &dft).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := dft.engineOptions(); got != (engine.Options{}) {
		t.Errorf("default engine options = %+v, want GOMAXPROCS workers", got)
	}
}
