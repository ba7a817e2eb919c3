// Command crashtest is the durability kill harness: it spawns the
// serve daemon with a data dir, streams randomized EDB updates at it,
// SIGKILLs it at a random moment (possibly mid-batch, mid-checkpoint,
// or mid-WAL-write), restarts it on the same data dir, and diffs every
// /v1/relation dump against an in-process oracle that recomputes the
// program from scratch over the surviving durable history.  Recovery
// is correct only if the restarted daemon is bit-exact with the
// recompute — not merely self-consistent.
//
// Trials rotate through all four semantics, covering all three
// maintainer strategies (counting/DRed strata, inflationary stage-log
// replay, the well-founded chain of Γ stages).
//
// Usage:
//
//	go run ./scripts/crashtest [-crashes 24] [-ckpt-crashes 6] [-fsync always] [-seed 1] [-serve PATH]
//
// With no -serve the daemon is built once into a temp dir with
// `go build`.  Exit status 0 means every trial recovered bit-exactly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/parser"
)

// trial programs: one per semantics, chosen so every maintainer
// strategy is exercised.  All share the c0..c7 constant pool and take
// updates on E.
var programs = map[string]string{
	// LFP / pure positive: counting-maintained strata.
	"lfp": "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).",
	// Stratified negation: counting + DRed across strata.
	"stratified": "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\nns(X,Y) :- node(X), node(Y), !s(X,Y).",
	// Non-stratified inflationary: stage-log replay strategy.
	"inflationary": "win(X) :- E(X,Y), !win(Y).",
	// Well-founded: alternating-fixpoint recompute strategy.
	"wellfounded": "win(X) :- E(X,Y), !win(Y).",
}

var semOrder = []string{"lfp", "stratified", "inflationary", "wellfounded"}

const pool = 8 // constants c0..c7

func main() {
	crashes := flag.Int("crashes", 24, "number of kill-and-recover trials (spread across semantics)")
	ckptCrashes := flag.Int("ckpt-crashes", 6, "extra trials that SIGKILL provably mid-checkpoint (checkpoint-every batch, REPRO_CKPT_DELAY held open)")
	fsync := flag.String("fsync", "always", "WAL sync policy handed to the daemon")
	seed := flag.Int64("seed", 1, "RNG seed for update streams and kill timing")
	serveBin := flag.String("serve", "", "path to a prebuilt serve binary (empty = go build one)")
	flag.Parse()

	bin := *serveBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "crashtest-bin")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "serve")
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/serve").CombinedOutput()
		if err != nil {
			fatal(fmt.Errorf("building serve: %v\n%s", err, out))
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	for i := 0; i < *crashes+*ckptCrashes; i++ {
		sem := semOrder[i%len(semOrder)]
		ckptKill := i >= *crashes
		label := ""
		if ckptKill {
			label = ", mid-checkpoint"
		}
		if err := runTrial(bin, sem, *fsync, rng, ckptKill); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "crashtest: trial %d (%s%s): FAIL: %v\n", i, sem, label, err)
		} else {
			fmt.Printf("crashtest: trial %d (%s%s): ok\n", i, sem, label)
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d/%d trials failed", failures, *crashes+*ckptCrashes))
	}
	fmt.Printf("crashtest: %d trials, all bit-exact after kill -9\n", *crashes+*ckptCrashes)
}

// runTrial runs one kill-and-recover cycle.  ckptKill aims the SIGKILL
// at the checkpoint install window: the daemon checkpoints after every
// batch and REPRO_CKPT_DELAY holds each install open between the tmp
// write and the rename, so the killer — watching checkpoint_in_flight
// in /v1/metrics — provably lands mid-checkpoint.
func runTrial(bin, sem, fsync string, rng *rand.Rand, ckptKill bool) error {
	work, err := os.MkdirTemp("", "crashtest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	progFile := filepath.Join(work, "program.dl")
	factsFile := filepath.Join(work, "facts.dl")
	dataDir := filepath.Join(work, "data")
	if err := os.WriteFile(progFile, []byte(programs[sem]+"\n"), 0o644); err != nil {
		return err
	}
	facts := seedFacts(sem, rng)
	if err := os.WriteFile(factsFile, []byte(facts), 0o644); err != nil {
		return err
	}

	listen := freeAddr()
	addr := "http://" + listen
	ckptEvery := "8"
	if ckptKill {
		ckptEvery = "1"
	}
	args := []string{
		"-program", progFile, "-facts", factsFile, "-semantics", sem,
		"-addr", listen, "-data-dir", dataDir, "-checkpoint-every", ckptEvery, "-fsync", fsync,
	}

	// Boot #1: stream updates, then kill -9 at a random moment.
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if ckptKill {
		cmd.Env = append(os.Environ(), "REPRO_CKPT_DELAY=150ms")
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := waitReady(addr); err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("boot 1: %w", err)
	}
	stop := make(chan struct{})
	streamDone := make(chan int)
	go func() {
		n := 0
		client := &http.Client{Timeout: 2 * time.Second}
		r := rand.New(rand.NewSource(rng.Int63())) // private rng: the streamer races the killer
		for {
			select {
			case <-stop:
				streamDone <- n
				return
			default:
			}
			if postUpdate(client, addr, randomEdge(r), r.Intn(2) == 0) == nil {
				n++
			}
		}
	}()
	if ckptKill {
		// Wait until a checkpoint install is provably open (the daemon
		// sleeps REPRO_CKPT_DELAY between the tmp write and the rename),
		// then land the kill inside it.  Fall through after 5s regardless
		// — a miss degrades to an ordinary random kill.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var met struct {
				Durable *struct {
					InFlight bool `json:"checkpoint_in_flight"`
				} `json:"durable"`
			}
			if getJSON(addr+"/v1/metrics", &met) == nil && met.Durable != nil && met.Durable.InFlight {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	} else {
		time.Sleep(time.Duration(5+rng.Intn(120)) * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return err
	}
	cmd.Wait()
	close(stop)
	acked := <-streamDone

	// Freeze the surviving history for the oracle before the restarted
	// daemon compacts it.
	oracleDir := filepath.Join(work, "oracle-data")
	if err := copyDir(dataDir, oracleDir); err != nil {
		return err
	}
	want, err := oracleState(programs[sem], facts, sem, oracleDir)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	// Boot #2: recover and compare every relation.
	cmd2 := exec.Command(bin, args...)
	cmd2.Stderr = os.Stderr
	if err := cmd2.Start(); err != nil {
		return err
	}
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	if err := waitReady(addr); err != nil {
		return fmt.Errorf("boot 2: %w", err)
	}
	got, err := daemonState(addr)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("after %d acked updates, recovered state diverged from recompute:\n got:\n%s\nwant:\n%s", acked, got, want)
	}

	// The durable metrics must report the recovery.
	var met struct {
		Durable *struct {
			RecoveredSnapshot bool    `json:"recovered_snapshot"`
			RecoveryDurMs     float64 `json:"recovery_dur_ms"`
			Checkpoints       int64   `json:"checkpoints"`
		} `json:"durable"`
	}
	if err := getJSON(addr+"/v1/metrics", &met); err != nil {
		return err
	}
	if met.Durable == nil {
		return fmt.Errorf("durable block missing from /v1/metrics")
	}
	if !met.Durable.RecoveredSnapshot {
		return fmt.Errorf("restart did not recover from the snapshot")
	}
	if met.Durable.RecoveryDurMs < 0 {
		return fmt.Errorf("recovery duration %v", met.Durable.RecoveryDurMs)
	}
	return nil
}

// oracleState recomputes the ground truth: open the frozen data dir,
// rebuild the EDB from the checkpoint plus the surviving WAL records
// at the fact level, and evaluate the program from scratch.
func oracleState(progSrc, seedSrc, semName, dir string) (string, error) {
	st, info, err := durable.Open(dir, durable.FsyncOff, 0)
	if err != nil {
		return "", err
	}
	st.Close()

	// EDB as of the snapshot (or the seed facts if the crash beat the
	// first checkpoint).
	edb := map[string]map[string][]string{}
	add := func(pred string, args []string) {
		if edb[pred] == nil {
			edb[pred] = map[string][]string{}
		}
		edb[pred][strings.Join(args, "\x00")] = args
	}
	if cp := info.Checkpoint; cp != nil {
		for _, pred := range cp.EDBNames {
			r := cp.EDB[pred]
			if edb[pred] == nil {
				edb[pred] = map[string][]string{}
			}
			for _, tup := range r.Tuples() {
				args := make([]string, len(tup))
				for i, v := range tup {
					args[i] = cp.Universe.Name(v)
				}
				add(pred, args)
			}
		}
	} else {
		seedDB, err := parser.Facts(seedSrc)
		if err != nil {
			return "", err
		}
		for _, pred := range seedDB.Names() {
			r := seedDB.Relation(pred)
			for _, tup := range r.Tuples() {
				args := make([]string, len(tup))
				for i, v := range tup {
					args[i] = seedDB.Universe().Name(v)
				}
				add(pred, args)
			}
		}
	}
	for _, rec := range info.Records {
		for _, f := range rec.Del {
			delete(edb[f.Pred], strings.Join(f.Args, "\x00"))
		}
		for _, f := range rec.Ins {
			add(f.Pred, f.Args)
		}
	}

	// From-scratch evaluation over the reconstructed EDB.
	var b strings.Builder
	for _, pred := range sortedPreds(edb) {
		for _, args := range edb[pred] {
			b.WriteString(pred + "(" + strings.Join(args, ",") + ").\n")
		}
	}
	db, err := parser.Facts(b.String())
	if err != nil {
		return "", err
	}
	prog, err := parser.Program(progSrc)
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
	var names []string
	for name := range snap.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, name := range names {
		var rows []string
		for _, tup := range snap.Rels[name].Tuples() {
			parts := make([]string, len(tup))
			for i, v := range tup {
				parts[i] = snap.Universe.Name(v)
			}
			rows = append(rows, strings.Join(parts, ","))
		}
		sort.Strings(rows)
		out.WriteString(name + ": " + strings.Join(rows, " ") + "\n")
	}
	return out.String(), nil
}

// daemonState dumps every relation of the running daemon in the same
// rendering as oracleState.
func daemonState(addr string) (string, error) {
	var stats struct {
		Relations map[string]int `json:"relations"`
	}
	if err := getJSON(addr+"/v1/stats", &stats); err != nil {
		return "", err
	}
	var names []string
	for name := range stats.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, name := range names {
		var rel struct {
			Tuples [][]string `json:"tuples"`
		}
		if err := getJSON(addr+"/v1/relation?pred="+name, &rel); err != nil {
			return "", err
		}
		var rows []string
		for _, tup := range rel.Tuples {
			rows = append(rows, strings.Join(tup, ","))
		}
		sort.Strings(rows)
		out.WriteString(name + ": " + strings.Join(rows, " ") + "\n")
	}
	return out.String(), nil
}

// seedFacts builds the initial fact file: a random edge set over the
// pool, plus the full node relation where the program needs it.
func seedFacts(sem string, rng *rand.Rand) string {
	var b strings.Builder
	for i := 0; i < pool; i++ {
		if sem == "stratified" {
			fmt.Fprintf(&b, "node(c%d).\n", i)
		}
		for j := 0; j < pool; j++ {
			if i != j && rng.Float64() < 0.2 {
				fmt.Fprintf(&b, "E(c%d,c%d).\n", i, j)
			}
		}
	}
	// Guarantee at least one edge so every relation exists.
	b.WriteString("E(c0,c1).\n")
	return b.String()
}

func randomEdge(rng *rand.Rand) []string {
	from := rng.Intn(pool)
	to := (from + 1 + rng.Intn(pool-1)) % pool
	return []string{fmt.Sprintf("c%d", from), fmt.Sprintf("c%d", to)}
}

func postUpdate(client *http.Client, addr string, edge []string, insert bool) error {
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

// waitReady polls /v1/stats until the daemon answers.
func waitReady(addr string) error {
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

// freeAddr grabs an unused localhost port.  The tiny window between
// closing the probe listener and the daemon binding is harmless here:
// a collision just fails the trial's waitReady and the harness errors.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sortedPreds(m map[string]map[string][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func getJSON(url string, out any) error {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashtest:", err)
	os.Exit(1)
}
