// Command crashtest is the durability kill harness: it spawns the
// serve daemon with a data dir, streams randomized EDB updates at it,
// SIGKILLs it at a random moment (possibly mid-batch, mid-checkpoint,
// or mid-WAL-write), restarts it on the same data dir, and diffs every
// /v1/relation dump against an in-process oracle that recomputes the
// program from scratch over the surviving durable history.  Recovery
// is correct only if the restarted daemon is bit-exact with the
// recompute — not merely self-consistent.  The crash points inside the
// store's file operations are enumerated in process, on a simulated
// disk, by internal/durable's TestCrashSim.
//
// Trials rotate through all four semantics, covering all three
// maintainer strategies (DRed strata, inflationary recompute, the
// well-founded chain of Γ stages).
//
// Usage:
//
//	go run ./scripts/crashtest [-crashes 24] [-fsync always] [-seed 1] [-serve PATH]
//
// With no -serve the daemon is built once into a temp dir with
// `go build`.  Exit status 0 means every trial recovered bit-exactly.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/parser"
	"repro/scripts/internal/killtest"
)

func main() {
	crashes := flag.Int("crashes", 24, "number of kill-and-recover trials (spread across semantics)")
	fsync := flag.String("fsync", "always", "WAL sync policy handed to the daemon")
	seed := flag.Int64("seed", 1, "RNG seed for update streams and kill timing")
	serveBin := flag.String("serve", "", "path to a prebuilt serve binary (empty = go build one)")
	flag.Parse()

	bin, cleanup := killtest.ServeBinary(*serveBin)
	defer cleanup()

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	for i := 0; i < *crashes; i++ {
		sem := killtest.SemOrder[i%len(killtest.SemOrder)]
		if err := runTrial(bin, sem, *fsync, rng); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "crashtest: trial %d (%s): FAIL: %v\n", i, sem, err)
		} else {
			fmt.Printf("crashtest: trial %d (%s): ok\n", i, sem)
		}
	}
	if failures > 0 {
		cleanup()
		killtest.Fatal(fmt.Errorf("%d/%d trials failed", failures, *crashes))
	}
	fmt.Printf("crashtest: %d trials, all bit-exact after kill -9\n", *crashes)
}

// runTrial runs one kill-and-recover cycle.
func runTrial(bin, sem, fsync string, rng *rand.Rand) error {
	work, err := os.MkdirTemp("", "crashtest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	progFile := filepath.Join(work, "program.dl")
	factsFile := filepath.Join(work, "facts.dl")
	dataDir := filepath.Join(work, "data")
	if err := os.WriteFile(progFile, []byte(killtest.Programs[sem]+"\n"), 0o644); err != nil {
		return err
	}
	facts := killtest.SeedFacts(sem, rng)
	if err := os.WriteFile(factsFile, []byte(facts), 0o644); err != nil {
		return err
	}

	listen := killtest.FreeAddr()
	addr := "http://" + listen
	args := []string{
		"-program", progFile, "-facts", factsFile, "-semantics", sem,
		"-addr", listen, "-data-dir", dataDir, "-checkpoint-every", "8", "-fsync", fsync,
	}

	// Boot #1: stream updates, then kill -9 at a random moment.
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := killtest.WaitReady(addr); err != nil {
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
			if killtest.PostUpdate(client, addr, killtest.RandomEdge(r), r.Intn(2) == 0) == nil {
				n++
			}
		}
	}()
	time.Sleep(time.Duration(5+rng.Intn(120)) * time.Millisecond)
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
	want, err := oracleState(killtest.Programs[sem], facts, sem, oracleDir)
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
	if err := killtest.WaitReady(addr); err != nil {
		return fmt.Errorf("boot 2: %w", err)
	}
	got, err := killtest.DaemonState(addr)
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
	if err := killtest.GetJSON(addr+"/v1/metrics", &met); err != nil {
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
	return killtest.Recompute(progSrc, semName, b.String())
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
