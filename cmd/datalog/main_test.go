package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestEngineOptions checks that -workers becomes the one engine.Options
// value the command passes on.
func TestEngineOptions(t *testing.T) {
	var o options
	if err := newFlags("datalog", &o).Parse([]string{"-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if got := o.engineOptions(); got != (engine.Options{Workers: 3}) {
		t.Errorf("engine options = %+v, want Workers 3", got)
	}
	var dft options
	if err := newFlags("datalog", &dft).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := dft.engineOptions(); got != (engine.Options{}) {
		t.Errorf("default engine options = %+v, want GOMAXPROCS workers", got)
	}
}

// TestRunThreadsOptions runs the evaluation, -explain and both -query
// paths with -workers 2 and checks each answers correctly.
func TestRunThreadsOptions(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	prog := write("tc.dl", "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\n")
	facts := write("g.dl", "E(a,b).\nE(b,c).\nE(c,d).\n")

	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"eval", nil, "s/2 = {(a,b), (a,c), (a,d), (b,c), (b,d), (c,d)}"},
		{"explain", []string{"-explain"}, "rule 2: "},
		{"query", []string{"-semantics", "lfp", "-query", "s(a, ?)"}, "s = {(a,b), (a,c), (a,d)}"},
		{"query-full", []string{"-semantics", "lfp", "-query", "s(a, ?)", "-magic=false"}, "s = {(a,b), (a,c), (a,d)}"},
	} {
		var o options
		args := append([]string{"-program", prog, "-facts", facts, "-workers", "2"}, c.args...)
		if err := newFlags("datalog", &o).Parse(args); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(&o, &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}
