package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTree writes files (slash-separated path → content) under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScan runs the scan on a small module laid out like this one: a
// name counts as called from a non-test file of the module, from its
// own package, or from any file of the nested benchmark module, and
// never from a test of the module itself.
func TestScan(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module repro\n\ngo 1.24\n",
		"internal/a/a.go": `package a

type T struct{}

func (T) Used()       {}
func (T) Unused()     {}
func (T) String() string { return "" }
func (T) helper()     {}

func Called()   {}
func Pinned()   {}
func Tested()   {}
func Internal() {}
func Caller()   { Internal() }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestTested(t *testing.T) { Tested(); T{}.Unused() }
`,
		"cmd/c/main.go": `package main

import "repro/internal/a"

func main() { a.Called(); a.Caller(); a.T{}.Used() }
`,
		"internal/a/testdata/skip.go": "package broken\n\nfunc (",
		"benchmark/go.mod":            "module repro/benchmark\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => ../\n",
		"benchmark/main.go":           "package main\n\nfunc main() {}\n",
		"benchmark/pin_test.go": `package main

import (
	"testing"

	"repro/internal/a"
)

func TestPin(t *testing.T) { a.Pinned() }
`,
	})
	dead, err := scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.T.Unused", "a.Tested"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("scan = %v, want %v", dead, want)
	}
}

func TestReadKeep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keep.txt")
	writeTree(t, dir, map[string]string{"keep.txt": "# comment\n\na.F   a reason\n"})
	keep, err := readKeep(path)
	if err != nil || !reflect.DeepEqual(keep, map[string]string{"a.F": "a reason"}) {
		t.Errorf("readKeep = %v, %v", keep, err)
	}
	writeTree(t, dir, map[string]string{"keep.txt": "a.F\n"})
	if _, err := readKeep(path); err == nil {
		t.Error("a name without a reason was accepted")
	}
}

func TestReport(t *testing.T) {
	keep := map[string]string{"a.F": "reference", "a.G": "helper"}
	for _, c := range []struct {
		dead []string
		ok   bool
		want string
	}{
		{[]string{"a.F", "a.G"}, true, "2 kept"},
		{[]string{"a.F", "a.G", "a.H"}, false, "a.H                                      NOT IN KEEP LIST"},
		{[]string{"a.F"}, false, "a.G                                      in keep list but not found"},
	} {
		var out strings.Builder
		if ok := report(&out, c.dead, keep); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("report(%v) = %v:\n%s\nwant %v and %q", c.dead, ok, out.String(), c.ok, c.want)
		}
	}
}
