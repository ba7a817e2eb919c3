// Command exports lists the exported functions and methods declared
// under internal/ that no non-test code calls: neither a non-test file
// of this module nor a file of the nested benchmark/ module, whose
// _test.go files count as callers because they pin names the harness
// starts in-process.  Go refuses imports of internal/ from outside the
// module, so such a name is kept alive only by its own tests.
//
// String, Error, Close and WriteHeader are skipped: they are reached
// through interfaces, which a use scan cannot see.  Every name found
// must appear in keep.txt with a reason, or the command exits 1; so
// must every name in keep.txt be found, or the list has gone stale.
//
//	go run ./scripts/exports            (from the repository root)
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const internal = "repro/internal/"

var skip = map[string]bool{"String": true, "Error": true, "Close": true, "WriteHeader": true}

func main() {
	dead, err := scan(".")
	if err != nil {
		fatal(err)
	}
	keep, err := readKeep("scripts/exports/keep.txt")
	if err != nil {
		fatal(err)
	}
	if !report(os.Stdout, dead, keep) {
		os.Exit(1)
	}
}

// key names a function as pkg.Name or pkg.Type.Name, pkg relative to
// repro/internal/; "" for anything declared elsewhere or not a func.
func key(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), internal) {
		return ""
	}
	name := strings.TrimPrefix(fn.Pkg().Path(), internal) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		name += n.Obj().Name() + "."
	}
	return name + fn.Name()
}

// scan type-checks the module rooted at root (module path repro) and
// returns the sorted exported names under internal/ nothing but tests
// use.  The source importer resolves imports with go list run in
// build.Default.Dir, so scan points that at root: benchmark/ imports
// nothing but repro and the standard library, which the root module
// resolves to the same directories.
func scan(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build.Default.Dir = root
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	exported, used := map[string]bool{}, map[string]bool{}
	check := func(dir, path string, names []string) error {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return err
		}
		for _, obj := range info.Uses {
			used[key(obj)] = true
		}
		if !strings.HasPrefix(path, internal) {
			return nil
		}
		for _, n := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(n).(type) {
			case *types.Func:
				exported[key(obj)] = obj.Exported()
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						exported[key(m)] = m.Exported() && !skip[m.Name()]
					}
				}
			}
		}
		return nil
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := strings.TrimSuffix("repro/"+rel, "/.")
		if rel != "benchmark" && !strings.HasPrefix(rel, "benchmark/") {
			return check(dir, path, bp.GoFiles)
		}
		if err := check(dir, path, append(bp.GoFiles, bp.TestGoFiles...)); err != nil || len(bp.XTestGoFiles) == 0 {
			return err
		}
		return check(dir, path+"_test", bp.XTestGoFiles)
	})
	var dead []string
	for k, ok := range exported {
		if ok && !used[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	return dead, err
}

// readKeep reads the keep list: a name and its reason per line, blank
// lines and # comments skipped.
func readKeep(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s: %s has no reason", path, name)
		}
		keep[name] = reason
	}
	return keep, sc.Err()
}

// report prints every dead name with its reason or a complaint, then
// every kept name no longer found; it reports whether there were none
// of either complaint.
func report(w io.Writer, dead []string, keep map[string]string) bool {
	bad, kept := 0, 0
	found := map[string]bool{}
	for _, k := range dead {
		found[k] = true
		if reason, ok := keep[k]; ok {
			fmt.Fprintf(w, "%-40s kept: %s\n", k, reason)
			kept++
		} else {
			fmt.Fprintf(w, "%-40s NOT IN KEEP LIST\n", k)
			bad++
		}
	}
	var stale []string
	for k := range keep {
		if !found[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		fmt.Fprintf(w, "%-40s in keep list but not found: it has a non-test caller, or is gone\n", k)
		bad++
	}
	fmt.Fprintf(w, "%d exported names under internal/ without a non-test caller, %d kept\n", len(dead), kept)
	return bad == 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exports:", err)
	os.Exit(2)
}
