package main

import (
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/scripts/internal/killtest"
)

// TestOracleMatchesRecoveredServer runs the harness's comparison logic
// in-process: a durable server takes updates and stops, the data dir
// is frozen with copyDir, and oracleState's from-scratch recompute
// over the frozen history must render exactly what a recovered server
// serves over HTTP via killtest.DaemonState.
func TestOracleMatchesRecoveredServer(t *testing.T) {
	for _, sem := range killtest.SemOrder {
		t.Run(sem, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			facts := killtest.SeedFacts(sem, rng)
			seedDB, err := parser.Facts(facts)
			if err != nil {
				t.Fatal(err)
			}
			prog := parser.MustProgram(killtest.Programs[sem])
			semantics, err := core.ParseSemantics(sem)
			if err != nil {
				t.Fatal(err)
			}
			dataDir := filepath.Join(t.TempDir(), "data")
			cfg := server.Config{DataDir: dataDir, Fsync: durable.FsyncAlways, CheckpointBatches: 3}
			srv, err := server.NewWith(prog, seedDB, semantics, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				edge := killtest.RandomEdge(rng)
				var ins, del []incr.Fact
				if rng.Intn(2) == 0 {
					ins = []incr.Fact{{Pred: "E", Args: edge}}
				} else {
					del = []incr.Fact{{Pred: "E", Args: edge}}
				}
				if _, _, err := srv.Update(ins, del); err != nil {
					t.Fatal(err)
				}
			}
			srv.Close()

			frozen := filepath.Join(t.TempDir(), "frozen")
			if err := copyDir(dataDir, frozen); err != nil {
				t.Fatal(err)
			}
			want, err := oracleState(killtest.Programs[sem], facts, sem, frozen)
			if err != nil {
				t.Fatal(err)
			}

			srv2, err := server.NewWith(prog, seedDB.Clone(), semantics, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			ts := httptest.NewServer(srv2.Handler())
			defer ts.Close()
			got, err := killtest.DaemonState(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("recovered server diverged from oracle:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestOracleSeedFallback: with no durable history at all the oracle
// evaluates the seed facts alone.
func TestOracleSeedFallback(t *testing.T) {
	dir := t.TempDir()
	got, err := oracleState(killtest.Programs["lfp"], "E(c0,c1).\nE(c1,c2).\n", "lfp", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E: c0,c1 c1,c2", "s: c0,c1 c0,c2 c1,c2"} {
		if !strings.Contains(got, want) {
			t.Errorf("oracle over seed facts lacks %q:\n%s", want, got)
		}
	}
}

func TestSeedFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plain := killtest.SeedFacts("lfp", rng)
	if !strings.Contains(plain, "E(c0,c1).") {
		t.Error("guaranteed edge missing")
	}
	if strings.Contains(plain, "node(") {
		t.Error("lfp facts should not mention node")
	}
	strat := killtest.SeedFacts("stratified", rng)
	for i := 0; i < killtest.Pool; i++ {
		if !strings.Contains(strat, "node(c"+string(rune('0'+i))+").") {
			t.Errorf("stratified facts lack node(c%d)", i)
		}
	}
	if _, err := parser.Facts(strat); err != nil {
		t.Fatalf("generated facts do not parse: %v", err)
	}
}

func TestRandomEdgeNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		e := killtest.RandomEdge(rng)
		if e[0] == e[1] {
			t.Fatalf("self loop %v", e)
		}
	}
}

func TestCopyDirSkipsSubdirs(t *testing.T) {
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "a.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(src, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "dst")
	if err := copyDir(src, dst); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dst, "a.log")); err != nil || string(data) != "x" {
		t.Fatalf("copied file = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dst, "sub")); !os.IsNotExist(err) {
		t.Error("subdirectory was copied")
	}
}

func TestFreeAddr(t *testing.T) {
	addr := killtest.FreeAddr()
	if _, err := url.Parse("http://" + addr); err != nil {
		t.Fatalf("killtest.FreeAddr() = %q: %v", addr, err)
	}
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("killtest.FreeAddr() = %q, want a localhost port", addr)
	}
}
