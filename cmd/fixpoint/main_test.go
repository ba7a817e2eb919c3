package main

import (
	"testing"

	"repro/internal/engine"
)

// TestEngineOptions checks that -workers and -partitions become the
// engine.Options the analysed instance is built with.
func TestEngineOptions(t *testing.T) {
	var o options
	if err := newFlags("fixpoint", &o).Parse([]string{"-workers", "3", "-partitions", "4", "-count", "5", "-least"}); err != nil {
		t.Fatal(err)
	}
	if got := o.engineOptions(); got != (engine.Options{Workers: 3, Partitions: 4}) {
		t.Errorf("engine options = %+v, want Workers 3, Partitions 4", got)
	}
	if o.count != 5 || !o.least {
		t.Errorf("analysis flags = %+v", o)
	}
	var dft options
	if err := newFlags("fixpoint", &dft).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := dft.engineOptions(); got != (engine.Options{Partitions: 1}) {
		t.Errorf("default engine options = %+v, want GOMAXPROCS workers, unpartitioned", got)
	}
}
