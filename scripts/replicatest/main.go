// Command replicatest is the replication kill harness: it runs a
// leader and a follower serve daemon as real processes, streams
// randomized EDB updates at the leader, SIGKILLs the leader
// mid-stream, waits for the follower to drain what survives, promotes
// the follower, and checks the promoted state bit-exactly against an
// in-process recompute of its own EDB — the same oracle discipline as
// scripts/crashtest, extended across the replication link.
//
// Three trial shapes:
//
//	A  leader+follower end-to-end per semantics: read-only 503 gating,
//	   mid-stream leader kill -9, convergence oracle, promotion, and
//	   writes continuing on the promoted follower.
//	B  retention pinning: the harness itself plays a slow poller
//	   against a checkpoint-every-batch leader and must never see 410
//	   while its pin holds — then a stale unpinned cursor must 410.
//	C  follower restart: SIGTERM the follower, let the leader advance,
//	   restart on the same data dir, and require incremental catch-up
//	   (zero re-bootstraps) to bit-exact equality with the leader.
//
// Usage:
//
//	go run ./scripts/replicatest [-fsync always] [-seed 1] [-serve PATH]
//
// Exit status 0 means every trial held.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/scripts/internal/killtest"
)

// edbPreds names the base relations per semantics — what the oracle
// reads back from the follower to recompute the derived state.
var edbPreds = map[string][]string{
	"lfp":          {"E"},
	"stratified":   {"E", "node"},
	"inflationary": {"E"},
	"wellfounded":  {"E"},
}

func main() {
	fsync := flag.String("fsync", "always", "WAL sync policy handed to both daemons")
	seed := flag.Int64("seed", 1, "RNG seed for update streams and kill timing")
	serveBin := flag.String("serve", "", "path to a prebuilt serve binary (empty = go build one)")
	flag.Parse()

	bin, cleanup := killtest.ServeBinary(*serveBin)
	defer cleanup()

	rng := rand.New(rand.NewSource(*seed))
	failures := 0
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "replicatest: %s: FAIL: %v\n", name, err)
		} else {
			fmt.Printf("replicatest: %s: ok\n", name)
		}
	}
	for _, sem := range killtest.SemOrder {
		sem := sem
		run("failover/"+sem, func() error { return failoverTrial(bin, sem, *fsync, rng) })
	}
	run("pinning", func() error { return pinningTrial(bin, *fsync, rng) })
	run("restart", func() error { return restartTrial(bin, *fsync, rng) })
	if failures > 0 {
		cleanup()
		killtest.Fatal(fmt.Errorf("%d trials failed", failures))
	}
	fmt.Println("replicatest: all trials held")
}

// trialDirs lays out one trial's working files.
func trialDirs(sem string, rng *rand.Rand) (work, progFile, factsFile string, err error) {
	work, err = os.MkdirTemp("", "replicatest")
	if err != nil {
		return
	}
	progFile = filepath.Join(work, "program.dl")
	factsFile = filepath.Join(work, "facts.dl")
	if err = os.WriteFile(progFile, []byte(killtest.Programs[sem]+"\n"), 0o644); err != nil {
		return
	}
	err = os.WriteFile(factsFile, []byte(killtest.SeedFacts(sem, rng)), 0o644)
	return
}

// daemon wraps one serve process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // http://host:port
}

func startDaemon(bin string, listen string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append(args, "-addr", listen)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: "http://" + listen}
	if err := killtest.WaitReady(d.addr); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
}

func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon at %s ignored SIGTERM", d.addr)
	}
}

// failoverTrial is trial A: end-to-end log shipping with a mid-stream
// leader kill and follower promotion.
func failoverTrial(bin, sem, fsync string, rng *rand.Rand) error {
	work, progFile, factsFile, err := trialDirs(sem, rng)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	leader, err := startDaemon(bin, killtest.FreeAddr(),
		"-program", progFile, "-facts", factsFile, "-semantics", sem,
		"-data-dir", filepath.Join(work, "leader"), "-checkpoint-every", "4", "-fsync", fsync)
	if err != nil {
		return fmt.Errorf("leader boot: %w", err)
	}
	defer leader.kill()

	follower, err := startDaemon(bin, killtest.FreeAddr(),
		"-program", progFile, "-semantics", sem, "-follow", leader.addr,
		"-data-dir", filepath.Join(work, "follower"), "-fsync", fsync)
	if err != nil {
		return fmt.Errorf("follower boot: %w", err)
	}
	defer follower.kill()

	// Read-only gating: an update to the follower is 503 not_leader
	// and names the leader.
	if err := expectNotLeader(follower.addr, leader.addr); err != nil {
		return err
	}

	// Stream updates at the leader and kill -9 it mid-stream.
	stop := make(chan struct{})
	streamDone := make(chan int)
	streamSeed := rng.Int63() // drawn here: the goroutine must not share rng
	go func() {
		n := 0
		client := &http.Client{Timeout: 2 * time.Second}
		r := rand.New(rand.NewSource(streamSeed))
		for {
			select {
			case <-stop:
				streamDone <- n
				return
			default:
			}
			if killtest.PostUpdate(client, leader.addr, killtest.RandomEdge(r), r.Intn(3) > 0) == nil {
				n++
			}
		}
	}()
	time.Sleep(time.Duration(20+rng.Intn(150)) * time.Millisecond)
	leader.kill()
	close(stop)
	acked := <-streamDone

	// The follower drains whatever survived, then stabilizes.
	if err := waitStable(follower.addr, false); err != nil {
		return err
	}

	// Oracle: the follower's derived state must equal a from-scratch
	// recompute of its own EDB.
	if err := checkConsistent(follower.addr, sem); err != nil {
		return fmt.Errorf("after leader kill (%d acked): %w", acked, err)
	}

	// Exactly one bootstrap, and the replica block is live.
	met, err := replicaMetrics(follower.addr)
	if err != nil {
		return err
	}
	if met.Bootstraps != 1 {
		return fmt.Errorf("follower bootstrapped %d times, want 1", met.Bootstraps)
	}
	if !met.ReadOnly {
		return fmt.Errorf("follower metrics claim writable before promotion")
	}

	// Promote and keep writing — to the follower this time.
	resp, err := http.Post(follower.addr+"/v1/replica/promote", "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote: status %d", resp.StatusCode)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 5; i++ {
		if err := killtest.PostUpdate(client, follower.addr, killtest.RandomEdge(rng), true); err != nil {
			return fmt.Errorf("write after promotion: %w", err)
		}
	}
	if err := checkConsistent(follower.addr, sem); err != nil {
		return fmt.Errorf("after promotion writes: %w", err)
	}
	met, err = replicaMetrics(follower.addr)
	if err != nil {
		return err
	}
	if met.ReadOnly {
		return fmt.Errorf("follower metrics still read-only after promotion")
	}
	return follower.stop()
}

// pinningTrial is trial B: the harness plays a deliberately slow
// poller against a leader that checkpoints after every batch.  The
// retention pin must keep every segment the poller still needs — no
// 410 until the cursor is genuinely abandoned.
func pinningTrial(bin, fsync string, rng *rand.Rand) error {
	const sem = "lfp"
	work, progFile, factsFile, err := trialDirs(sem, rng)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	leader, err := startDaemon(bin, killtest.FreeAddr(),
		"-program", progFile, "-facts", factsFile, "-semantics", sem,
		"-data-dir", filepath.Join(work, "leader"), "-checkpoint-every", "1", "-fsync", fsync)
	if err != nil {
		return fmt.Errorf("leader boot: %w", err)
	}
	defer leader.kill()

	// Register as a follower: the snapshot response pins our cursor.
	resp, err := http.Get(leader.addr + "/v1/replica/snapshot?id=slowpoke")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: status %d", resp.StatusCode)
	}
	bootstrapCursor := resp.Header.Get("X-Replica-Seq") + "," + resp.Header.Get("X-Replica-Off")
	var bootstrapSeq uint64
	fmt.Sscan(resp.Header.Get("X-Replica-Seq"), &bootstrapSeq)

	// Every one of these updates triggers a checkpoint — without the
	// pin, the segments behind our cursor would be compacted away.
	client := &http.Client{Timeout: 2 * time.Second}
	const updates = 8
	for i := 0; i < updates; i++ {
		if err := killtest.PostUpdate(client, leader.addr, killtest.RandomEdge(rng), true); err != nil {
			return err
		}
	}

	// Slow drain, one poll at a time: never a 410 while pinned.
	cursor, drained := bootstrapCursor, 0
	for i := 0; i < 4*updates && drained < updates; i++ {
		resp, err := http.Get(leader.addr + "/v1/replica/wal?id=slowpoke&wait=0&from=" + cursor)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return fmt.Errorf("pinned cursor %s compacted after %d/%d records", cursor, drained, updates)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("wal poll: status %d", resp.StatusCode)
		}
		n := 0
		fmt.Sscan(resp.Header.Get("X-Replica-Records"), &n)
		drained += n
		cursor = resp.Header.Get("X-Replica-Next-Seq") + "," + resp.Header.Get("X-Replica-Next-Off")
		time.Sleep(10 * time.Millisecond)
	}
	if drained < updates {
		return fmt.Errorf("drained %d records, want %d", drained, updates)
	}

	// Keep our pin riding the tail (each poll refreshes it) until a
	// background checkpoint compacts the history behind us, then a
	// stale cursor under a NEW id — no pin — must answer 410.  Probing
	// with the new id before compaction would itself pin the old
	// segments and retain them legitimately.  A checkpoint sweeps the
	// bootstrap segment only if it started after a poll moved the pin
	// past it.  The first checkpoint to complete after that poll may
	// have started before it; checkpoints are serialized, so the second
	// started after.
	sweptAfter := int64(-1) // checkpoints completed when the pin first passed the bootstrap segment
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := killtest.PostUpdate(client, leader.addr, killtest.RandomEdge(rng), true); err != nil {
			return err
		}
		resp, err = http.Get(leader.addr + "/v1/replica/wal?id=slowpoke&wait=0&from=" + cursor)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("tail poll: status %d", resp.StatusCode)
		}
		cursor = resp.Header.Get("X-Replica-Next-Seq") + "," + resp.Header.Get("X-Replica-Next-Off")
		var nextSeq uint64
		fmt.Sscan(resp.Header.Get("X-Replica-Next-Seq"), &nextSeq)
		var met struct {
			Durable *struct {
				Checkpoints int64 `json:"checkpoints"`
			} `json:"durable"`
		}
		if err := killtest.GetJSON(leader.addr+"/v1/metrics", &met); err != nil {
			return err
		}
		if met.Durable == nil {
			return fmt.Errorf("leader reports no durable metrics")
		}
		if sweptAfter < 0 && nextSeq > bootstrapSeq {
			sweptAfter = met.Durable.Checkpoints
		}
		if sweptAfter >= 0 && met.Durable.Checkpoints >= sweptAfter+2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader never checkpointed twice past the advancing pin (%d checkpoints, %d when it passed segment %d)",
				met.Durable.Checkpoints, sweptAfter, bootstrapSeq)
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err = http.Get(leader.addr + "/v1/replica/wal?id=latecomer&wait=0&from=" + bootstrapCursor)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		return fmt.Errorf("stale unpinned cursor: status %d, want 410", resp.StatusCode)
	}
	return nil
}

// restartTrial is trial C: SIGTERM the follower, advance the leader,
// restart the follower on the same data dir, and require incremental
// catch-up — zero re-bootstraps — to bit-exact leader equality.
func restartTrial(bin, fsync string, rng *rand.Rand) error {
	const sem = "lfp"
	work, progFile, factsFile, err := trialDirs(sem, rng)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	leader, err := startDaemon(bin, killtest.FreeAddr(),
		"-program", progFile, "-facts", factsFile, "-semantics", sem,
		"-data-dir", filepath.Join(work, "leader"), "-checkpoint-every", "4", "-fsync", fsync)
	if err != nil {
		return fmt.Errorf("leader boot: %w", err)
	}
	defer leader.kill()

	fdir := filepath.Join(work, "follower")
	flisten := killtest.FreeAddr()
	followerArgs := []string{
		"-program", progFile, "-semantics", sem, "-follow", leader.addr,
		"-data-dir", fdir, "-fsync", fsync,
	}
	follower, err := startDaemon(bin, flisten, followerArgs...)
	if err != nil {
		return fmt.Errorf("follower boot: %w", err)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 5; i++ {
		if err := killtest.PostUpdate(client, leader.addr, killtest.RandomEdge(rng), true); err != nil {
			follower.kill()
			return err
		}
	}
	if err := waitStable(follower.addr, true); err != nil {
		follower.kill()
		return err
	}
	if err := follower.stop(); err != nil {
		return err
	}

	// Leader advances while the follower is down.
	for i := 0; i < 5; i++ {
		if err := killtest.PostUpdate(client, leader.addr, killtest.RandomEdge(rng), true); err != nil {
			return err
		}
	}

	// Restart on the same data dir and port: incremental catch-up.
	follower, err = startDaemon(bin, flisten, followerArgs...)
	if err != nil {
		return fmt.Errorf("follower reboot: %w", err)
	}
	defer follower.kill()
	if err := waitStable(follower.addr, true); err != nil {
		return err
	}
	met, err := replicaMetrics(follower.addr)
	if err != nil {
		return err
	}
	if met.Bootstraps != 0 {
		return fmt.Errorf("restart re-bootstrapped (%d) instead of resuming from the cursor", met.Bootstraps)
	}
	want, err := killtest.DaemonState(leader.addr)
	if err != nil {
		return err
	}
	got, err := killtest.DaemonState(follower.addr)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("restarted follower diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
	return follower.stop()
}

// expectNotLeader posts an update to a follower and demands the 503
// not_leader contract.
func expectNotLeader(followerAddr, leaderAddr string) error {
	body := bytes.NewBufferString(`{"insert":[{"pred":"E","args":["c0","c1"]}]}`)
	resp, err := http.Post(followerAddr+"/v1/update", "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("follower update: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Leader-Addr"); got != leaderAddr {
		return fmt.Errorf("X-Leader-Addr = %q, want %q", got, leaderAddr)
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "not_leader" {
		return fmt.Errorf("error code %q (%v), want not_leader", e.Error.Code, err)
	}
	return nil
}

// replicaMetrics fetches the follower's replica block.
func replicaMetrics(addr string) (*struct {
	ReadOnly       bool  `json:"read_only"`
	AppliedRecords int64 `json:"applied_records"`
	LagRecords     int64 `json:"lag_records"`
	Bootstraps     int64 `json:"bootstraps"`
}, error) {
	var met struct {
		Replica *struct {
			ReadOnly       bool  `json:"read_only"`
			AppliedRecords int64 `json:"applied_records"`
			LagRecords     int64 `json:"lag_records"`
			Bootstraps     int64 `json:"bootstraps"`
		} `json:"replica"`
	}
	if err := killtest.GetJSON(addr+"/v1/metrics", &met); err != nil {
		return nil, err
	}
	if met.Replica == nil {
		return nil, fmt.Errorf("replica block missing from /v1/metrics")
	}
	return met.Replica, nil
}

// waitStable waits until the follower's applied-record count stops
// moving.  requireZeroLag additionally demands a drained tail — only
// meaningful while the leader is alive; against a dead leader the lag
// metric freezes at the last poll's value.
func waitStable(addr string, requireZeroLag bool) error {
	deadline := time.Now().Add(20 * time.Second)
	var last int64 = -1
	settled := 0
	for time.Now().Before(deadline) {
		met, err := replicaMetrics(addr)
		if err != nil {
			return err
		}
		if met.AppliedRecords == last && (!requireZeroLag || met.LagRecords == 0) {
			settled++
			if settled >= 6 {
				return nil
			}
		} else {
			settled = 0
		}
		last = met.AppliedRecords
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("follower at %s never stabilized", addr)
}

// checkConsistent recomputes the daemon's derived state from its own
// EDB and demands bit-exact equality with what it serves — the
// replication-apply path must agree with a from-scratch evaluation.
func checkConsistent(addr, semName string) error {
	var b strings.Builder
	for _, pred := range edbPreds[semName] {
		var rel struct {
			Tuples [][]string `json:"tuples"`
		}
		if err := killtest.GetJSON(addr+"/v1/relation?pred="+pred, &rel); err != nil {
			return err
		}
		for _, tup := range rel.Tuples {
			b.WriteString(pred + "(" + strings.Join(tup, ",") + ").\n")
		}
	}
	want, err := killtest.Recompute(killtest.Programs[semName], semName, b.String())
	if err != nil {
		return err
	}
	got, err := killtest.DaemonState(addr)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("daemon state diverged from EDB recompute:\n got:\n%s\nwant:\n%s", got, want)
	}
	return nil
}
