package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// registeredIDs lists the experiments in order.  E13, E15, E17 and E18
// are retired; their numbers are not reused so that published tables
// keep their meaning.
var registeredIDs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != len(registeredIDs) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(registeredIDs))
	}
	for i, e := range all {
		if e.ID != fmt.Sprint("E", registeredIDs[i]) {
			t.Errorf("position %d has %s, want E%d", i, e.ID, registeredIDs[i])
		}
		if e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := Find("E1"); !ok {
		t.Error("Find(E1) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find(E99) succeeded")
	}
}

// TestAllExperimentsPass runs every experiment in quick mode: each
// experiment verifies its paper claims internally and errors on any
// mismatch, so this is the end-to-end reproduction check.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(&buf, e, true); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, buf.String())
			}
			if strings.Contains(buf.String(), "MISMATCH") {
				t.Fatalf("mismatch in output:\n%s", buf.String())
			}
		})
	}
}
