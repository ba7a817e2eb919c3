// Package killtest holds what the two kill harnesses, scripts/crashtest
// and scripts/replicatest, share: the trial programs and their seed
// facts, the HTTP helpers that drive a serve daemon and dump its state,
// and the from-scratch recompute every dump is compared against.
package killtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/parser"
)

// Programs are the trial programs, one per semantics, chosen so every
// maintainer strategy is exercised.  All share the c0..c7 constant
// pool and take updates on E.
var Programs = map[string]string{
	// LFP / pure positive: counting-maintained strata.
	"lfp": "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).",
	// Stratified negation: counting + DRed across strata.
	"stratified": "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\nns(X,Y) :- node(X), node(Y), !s(X,Y).",
	// Non-stratified inflationary: stage-log replay strategy.
	"inflationary": "win(X) :- E(X,Y), !win(Y).",
	// Well-founded: the maintained chain of Γ stages.
	"wellfounded": "win(X) :- E(X,Y), !win(Y).",
}

// SemOrder is the order trials rotate through the semantics.
var SemOrder = []string{"lfp", "stratified", "inflationary", "wellfounded"}

// Pool is the number of constants, c0..c7.
const Pool = 8

// SeedFacts builds the initial fact file: a random edge set over the
// pool, plus the full node relation where the program needs it.
func SeedFacts(sem string, rng *rand.Rand) string {
	var b strings.Builder
	for i := 0; i < Pool; i++ {
		if sem == "stratified" {
			fmt.Fprintf(&b, "node(c%d).\n", i)
		}
		for j := 0; j < Pool; j++ {
			if i != j && rng.Float64() < 0.2 {
				fmt.Fprintf(&b, "E(c%d,c%d).\n", i, j)
			}
		}
	}
	// Guarantee at least one edge so every relation exists.
	b.WriteString("E(c0,c1).\n")
	return b.String()
}

// RandomEdge draws an edge between two distinct pool constants.
func RandomEdge(rng *rand.Rand) []string {
	from := rng.Intn(Pool)
	to := (from + 1 + rng.Intn(Pool-1)) % Pool
	return []string{fmt.Sprintf("c%d", from), fmt.Sprintf("c%d", to)}
}

// PostUpdate inserts (or deletes) one E edge through /v1/update.
func PostUpdate(client *http.Client, addr string, edge []string, insert bool) error {
	op := "delete"
	if insert {
		op = "insert"
	}
	body, _ := json.Marshal(map[string]any{
		op: []map[string]any{{"pred": "E", "args": edge}},
	})
	resp, err := client.Post(addr+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update: %s", resp.Status)
	}
	return nil
}

// WaitReady polls /v1/stats until the daemon answers.
func WaitReady(addr string) error {
	deadline := time.Now().Add(15 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", addr)
}

// FreeAddr grabs an unused localhost port.  The tiny window between
// closing the probe listener and the daemon binding is harmless here:
// a collision just fails the trial's WaitReady and the harness errors.
func FreeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// GetJSON decodes the 200 response of a GET into out.
func GetJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// DaemonState dumps every relation of a running daemon, one sorted
// line per relation, in the rendering Recompute uses.
func DaemonState(addr string) (string, error) {
	var stats struct {
		Relations map[string]int `json:"relations"`
	}
	if err := GetJSON(addr+"/v1/stats", &stats); err != nil {
		return "", err
	}
	rels := map[string][][]string{}
	for name := range stats.Relations {
		var rel struct {
			Tuples [][]string `json:"tuples"`
		}
		if err := GetJSON(addr+"/v1/relation?pred="+name, &rel); err != nil {
			return "", err
		}
		rels[name] = rel.Tuples
	}
	return render(rels), nil
}

// Recompute evaluates program progSrc under semantics semName from
// scratch over the fact file facts and renders the result as
// DaemonState does: the ground truth a daemon's dump must equal.
func Recompute(progSrc, semName, facts string) (string, error) {
	prog, err := parser.Program(progSrc)
	if err != nil {
		return "", err
	}
	db, err := parser.Facts(facts)
	if err != nil {
		return "", err
	}
	sem, err := core.ParseSemantics(semName)
	if err != nil {
		return "", err
	}
	m, err := incr.New(prog, db, sem)
	if err != nil {
		return "", err
	}
	snap := m.Snapshot()
	rels := map[string][][]string{}
	for name, r := range snap.Rels {
		rows := [][]string{}
		for _, tup := range r.Tuples() {
			row := make([]string, len(tup))
			for i, v := range tup {
				row[i] = snap.Universe.Name(v)
			}
			rows = append(rows, row)
		}
		rels[name] = rows
	}
	return render(rels), nil
}

// render prints "name: row row ...\n" per relation, relations and rows
// sorted, a row's columns joined by commas.
func render(rels map[string][][]string) string {
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, name := range names {
		rows := make([]string, 0, len(rels[name]))
		for _, tup := range rels[name] {
			rows = append(rows, strings.Join(tup, ","))
		}
		sort.Strings(rows)
		out.WriteString(name + ": " + strings.Join(rows, " ") + "\n")
	}
	return out.String()
}

// ServeBinary returns path, or, when path is empty, builds cmd/serve
// into a temporary directory with `go build` and returns the binary
// and a cleanup that removes it.
func ServeBinary(path string) (bin string, cleanup func()) {
	if path != "" {
		return path, func() {}
	}
	dir, err := os.MkdirTemp("", "killtest-bin")
	if err != nil {
		Fatal(err)
	}
	bin = filepath.Join(dir, "serve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/serve").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		Fatal(fmt.Errorf("building serve: %v\n%s", err, out))
	}
	return bin, func() { os.RemoveAll(dir) }
}

// Fatal prints err prefixed with the command's name and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
