package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunPi1OnC4 analyzes π₁ on the 4-cycle, which has exactly two
// fixpoints, {2,4} and {1,3}, both stable, and no least one (paper §2).
func TestRunPi1OnC4(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	prog := write("pi1.dl", "T(X) :- E(Y,X), !T(Y).\n")
	facts := write("c4.dl", "E(1,2).\nE(2,3).\nE(3,4).\nE(4,1).\n")

	tail := `least:    false
intersection of all 2 fixpoints (not itself a fixpoint):
  T = {}
stable:   2
first 2 fixpoint(s):
--- fixpoint 1 ---
  T = {(2), (4)}
--- fixpoint 2 ---
  T = {(1), (3)}
`
	for _, c := range []struct {
		name  string
		extra []string
		count string
	}{
		{"exact", nil, "2"},
		{"capped", []string{"-count", "1"}, "1+ (limit reached)"},
	} {
		args := append([]string{"-program", prog, "-facts", facts, "-least", "-stable", "-enumerate", "2"}, c.extra...)
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := "class:    general\nexists:   true\ncount:    " + c.count + "\nunique:   false\n" + tail
		if out.String() != want {
			t.Errorf("%s: got\n%s\nwant\n%s", c.name, out.String(), want)
		}
	}
}
