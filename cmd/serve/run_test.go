package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func waitUp(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", addr)
}

// TestRunLeaderFollowerGracefulShutdown drives the daemon body
// end-to-end in-process: a durable leader, a -follow follower that
// bootstraps and tails it, an update shipped across, promotion, and a
// SIGTERM that both instances exit cleanly from (final checkpoint
// included — the satellite fix this pins).
func TestRunLeaderFollowerGracefulShutdown(t *testing.T) {
	work := t.TempDir()
	progFile := filepath.Join(work, "p.dl")
	factsFile := filepath.Join(work, "f.dl")
	if err := os.WriteFile(progFile, []byte("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(factsFile, []byte("E(a,b).\nE(b,c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	llisten, flisten := freePort(t), freePort(t)
	leaderErr := make(chan error, 1)
	go func() {
		leaderErr <- run([]string{
			"-program", progFile, "-facts", factsFile, "-semantics", "lfp",
			"-addr", llisten, "-data-dir", filepath.Join(work, "leader"),
			"-fsync", "off", "-checkpoint-every", "2",
		})
	}()
	leaderAddr := "http://" + llisten
	waitUp(t, leaderAddr)

	followerErr := make(chan error, 1)
	go func() {
		followerErr <- run([]string{
			"-program", progFile, "-semantics", "lfp",
			"-addr", flisten, "-data-dir", filepath.Join(work, "follower"),
			"-fsync", "off", "-follow", leaderAddr,
		})
	}()
	followerAddr := "http://" + flisten
	waitUp(t, followerAddr)

	// Ship an update through the leader; the follower must apply it.
	body := bytes.NewBufferString(`{"insert":[{"pred":"E","args":["c","d"]}]}`)
	resp, err := http.Post(leaderAddr+"/v1/update", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader update: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var met struct {
			Replica *struct {
				AppliedRecords int64 `json:"applied_records"`
				LagRecords     int64 `json:"lag_records"`
			} `json:"replica"`
		}
		r, err := http.Get(followerAddr + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&met)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if met.Replica != nil && met.Replica.AppliedRecords >= 1 && met.Replica.LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied the update: %+v", met.Replica)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A follower refuses writes; promotion opens them.
	resp, err = http.Post(followerAddr+"/v1/update", "application/json",
		bytes.NewBufferString(`{"insert":[{"pred":"E","args":["x","y"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower update: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(followerAddr+"/v1/replica/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}

	// SIGTERM reaches both instances' NotifyContext; both exit nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan error{"leader": leaderErr, "follower": followerErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("%s run: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s never exited after SIGTERM", name)
		}
	}

	// The graceful path wrote final checkpoints: both data dirs hold a
	// snapshot.
	for _, dir := range []string{"leader", "follower"} {
		if _, err := os.Stat(filepath.Join(work, dir, "snapshot.bin")); err != nil {
			t.Errorf("%s: no final checkpoint: %v", dir, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	work := t.TempDir()
	progFile := filepath.Join(work, "p.dl")
	if err := os.WriteFile(progFile, []byte("s(X) :- E(X).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"missing program file", []string{"-program", filepath.Join(work, "nope.dl"), "-facts", progFile}},
		{"follow without data-dir", []string{"-program", progFile, "-follow", "http://x"}},
		{"bad semantics", []string{"-program", progFile, "-facts", progFile, "-semantics", "nope"}},
		{"bad fsync policy", []string{"-program", progFile, "-facts", progFile, "-fsync", "sometimes"}},
		{"follower leader unreachable", []string{
			"-program", progFile, "-follow", "http://127.0.0.1:1",
			"-data-dir", filepath.Join(work, "d")}},
	}
	for _, c := range cases {
		if err := run(c.args); err == nil {
			t.Errorf("%s: run returned nil", c.name)
		}
	}
}
