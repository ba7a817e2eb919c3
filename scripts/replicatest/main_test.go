package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/scripts/internal/killtest"
)

// startTestServer runs an in-process daemon over the trial program for
// one semantics, so the harness's HTTP helpers can be exercised
// without spawning processes.
func startTestServer(t *testing.T, sem string, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	prog, err := parser.Program(killtest.Programs[sem])
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.Facts(killtest.SeedFacts(sem, rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParseSemantics(sem)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWith(prog, db, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func TestSeedFactsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sem := range killtest.SemOrder {
		facts := killtest.SeedFacts(sem, rng)
		if !strings.Contains(facts, "E(c0,c1).") {
			t.Errorf("%s: seed facts missing the guaranteed edge", sem)
		}
		hasNode := strings.Contains(facts, "node(")
		if hasNode != (sem == "stratified") {
			t.Errorf("%s: node facts present=%v", sem, hasNode)
		}
		if _, err := parser.Facts(facts); err != nil {
			t.Errorf("%s: seed facts do not parse: %v", sem, err)
		}
	}
}

func TestRandomEdgeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		edge := killtest.RandomEdge(rng)
		if len(edge) != 2 || edge[0] == edge[1] {
			t.Fatalf("bad edge %v", edge)
		}
		for _, c := range edge {
			if !strings.HasPrefix(c, "c") {
				t.Fatalf("edge constant %q outside the pool", c)
			}
		}
	}
}

func TestTrialDirs(t *testing.T) {
	work, progFile, factsFile, err := trialDirs("stratified", rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(work)
	prog, err := os.ReadFile(progFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(prog) != killtest.Programs["stratified"]+"\n" {
		t.Errorf("program file content mismatch")
	}
	if _, err := os.Stat(factsFile); err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(progFile) != work {
		t.Errorf("program file outside work dir")
	}
}

// TestHelpersAgainstLiveServer covers the harness's HTTP oracle
// helpers against an in-process writable daemon: readiness polling,
// update posting, the full-state dump, and the EDB-recompute
// consistency check.
func TestHelpersAgainstLiveServer(t *testing.T) {
	for _, sem := range []string{"lfp", "stratified"} {
		_, ts := startTestServer(t, sem, server.Config{})
		if err := killtest.WaitReady(ts.URL); err != nil {
			t.Fatalf("%s: WaitReady: %v", sem, err)
		}
		client := &http.Client{}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 3; i++ {
			if err := killtest.PostUpdate(client, ts.URL, killtest.RandomEdge(rng), true); err != nil {
				t.Fatalf("%s: PostUpdate insert: %v", sem, err)
			}
		}
		if err := killtest.PostUpdate(client, ts.URL, killtest.RandomEdge(rng), false); err != nil {
			t.Fatalf("%s: PostUpdate delete: %v", sem, err)
		}
		state, err := killtest.DaemonState(ts.URL)
		if err != nil {
			t.Fatalf("%s: DaemonState: %v", sem, err)
		}
		if !strings.Contains(state, "s: ") {
			t.Errorf("%s: state dump missing derived relation:\n%s", sem, state)
		}
		if err := checkConsistent(ts.URL, sem); err != nil {
			t.Errorf("%s: checkConsistent on a live daemon: %v", sem, err)
		}
	}
}

// TestHelpersAgainstFollower covers the read-only-side helpers: the
// not_leader contract check, the replica metrics reader, and the
// stability wait, against a server wearing follower configuration and
// a stubbed metrics hook.
func TestHelpersAgainstFollower(t *testing.T) {
	srv, ts := startTestServer(t, "lfp", server.Config{
		ReadOnly:   true,
		LeaderAddr: "http://leader.example:8090",
	})
	srv.SetReplicaHooks(func() *server.ReplicaMetrics {
		return &server.ReplicaMetrics{
			Leader:         "http://leader.example:8090",
			AppliedRecords: 42,
			Bootstraps:     1,
		}
	}, nil)

	if err := expectNotLeader(ts.URL, "http://leader.example:8090"); err != nil {
		t.Fatalf("expectNotLeader: %v", err)
	}
	met, err := replicaMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !met.ReadOnly || met.AppliedRecords != 42 || met.Bootstraps != 1 {
		t.Errorf("replica metrics mismatch: %+v", met)
	}
	// AppliedRecords is constant and lag is zero: waitStable settles.
	if err := waitStable(ts.URL, true); err != nil {
		t.Fatalf("waitStable: %v", err)
	}

	// After promotion the same helper must report writable, and the
	// not_leader check must fail.
	srv.Promote()
	met, err = replicaMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if met.ReadOnly {
		t.Error("metrics still read-only after Promote")
	}
	if err := expectNotLeader(ts.URL, "http://leader.example:8090"); err == nil {
		t.Error("expectNotLeader passed against a promoted daemon")
	}
}

func TestGetJSONErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ts.Close()
	var out struct{}
	if err := killtest.GetJSON(ts.URL+"/nope", &out); err == nil {
		t.Error("GetJSON on a 404: no error")
	}
	if err := killtest.GetJSON("http://127.0.0.1:1/", &out); err == nil {
		t.Error("GetJSON on a dead address: no error")
	}
}

// TestTrialsEndToEnd runs each trial shape once against real daemon
// processes with -fsync off — the quick in-tree variant of what `make
// replicatest` runs with -fsync always across all semantics.
func TestTrialsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/serve").CombinedOutput()
	if err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}
	rng := rand.New(rand.NewSource(11))
	if err := failoverTrial(bin, "lfp", "off", rng); err != nil {
		t.Errorf("failover trial: %v", err)
	}
	if err := pinningTrial(bin, "off", rng); err != nil {
		t.Errorf("pinning trial: %v", err)
	}
	if err := restartTrial(bin, "off", rng); err != nil {
		t.Errorf("restart trial: %v", err)
	}
}

func TestFreeAddr(t *testing.T) {
	a, b := killtest.FreeAddr(), killtest.FreeAddr()
	if !strings.HasPrefix(a, "127.0.0.1:") || !strings.HasPrefix(b, "127.0.0.1:") {
		t.Fatalf("unexpected addrs %q %q", a, b)
	}
}
