package main

import (
	"testing"

	"repro/internal/engine"
)

// TestEngineOptions checks that -workers and -partitions become the
// engine.Options every experiment evaluates with.
func TestEngineOptions(t *testing.T) {
	var o options
	if err := newFlags("bench", &o).Parse([]string{"-workers", "3", "-partitions", "4", "-exp", "E7", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if got := o.engineOptions(); got != (engine.Options{Workers: 3, Partitions: 4}) {
		t.Errorf("engine options = %+v, want Workers 3, Partitions 4", got)
	}
	if o.exp != "E7" || !o.quick {
		t.Errorf("experiment flags = %+v", o)
	}
	var dft options
	if err := newFlags("bench", &dft).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := dft.engineOptions(); got != (engine.Options{Partitions: 1}) {
		t.Errorf("default engine options = %+v, want GOMAXPROCS workers, unpartitioned", got)
	}
}
