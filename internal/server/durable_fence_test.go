// durable_fence_test.go — white-box tests of the durability failure
// paths: a WAL append error must fence the write path (no publication
// of the unlogged batch, no later batches logged over the hole, no
// checkpoint absorbing it), and a failed checkpoint must leave the
// trigger counters tripped so the retry fires at the next commit.
package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
)

func newFenceServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dir
	cfg.Fsync = durable.FsyncOff
	srv, err := NewWith(parser.MustProgram(qTCSrc), graphs.Path(8).Database(), core.LFP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestWALAppendFailureFencesWrites(t *testing.T) {
	dir := t.TempDir()
	srv := newFenceServer(t, dir, Config{})
	defer srv.Close()

	ins := func(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }
	if _, _, err := srv.Update(ins("a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	genBefore := srv.Snapshot().Gen

	// Kill the WAL out from under the server: the next append fails.
	srv.dur.store.Close()
	_, snap, err := srv.Update(ins("c", "d"), nil)
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("update with dead WAL: err = %v, want ErrWALFailed", err)
	}
	if snap != nil {
		t.Fatal("unlogged batch returned a snapshot")
	}
	if got := srv.Snapshot().Gen; got != genBefore {
		t.Fatalf("unlogged batch was published: gen %d, want %d", got, genBefore)
	}

	// The write path stays fenced: later updates fail BEFORE touching
	// the maintainer (appendErrors stays at one).
	if _, _, err := srv.Update(ins("e", "f"), nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("update after fence: err = %v, want ErrWALFailed", err)
	}
	if got := srv.dur.appendErrors.Load(); got != 1 {
		t.Fatalf("appendErrors = %d, want 1 (fence must trip before the WAL)", got)
	}

	// No checkpoint may absorb the unlogged batch.
	ckpts := srv.dur.checkpoints.Load()
	srv.maybeCheckpointAsync()
	srv.checkpointOnce()
	if got := srv.dur.checkpoints.Load(); got != ckpts {
		t.Fatalf("checkpoint ran while fenced: %d, want %d", got, ckpts)
	}
	srv.Close()

	// Recovery rebuilds exactly the acknowledged state: the durable
	// history holds the first batch only, and the failed batch is gone.
	srv2 := newFenceServer(t, dir, Config{})
	defer srv2.Close()
	if got := srv2.Snapshot().Gen; got != genBefore {
		t.Fatalf("recovered gen %d, want %d", got, genBefore)
	}
	snap2 := srv2.Snapshot()
	u := snap2.Universe
	if _, ok := u.Lookup("c"); ok {
		t.Fatal("failed batch's constant survived into the durable history")
	}
	if _, ok := u.Lookup("a"); !ok {
		t.Fatal("acknowledged batch missing after recovery")
	}
}

func TestCheckpointFailureKeepsTriggerTripped(t *testing.T) {
	dir := t.TempDir()
	srv := newFenceServer(t, dir, Config{CheckpointBatches: 1 << 30})
	defer srv.Close()

	ins := []incr.Fact{{Pred: "E", Args: []string{"x", "y"}}}
	if _, _, err := srv.Update(ins, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.dur.sinceBatches.Load(); got != 1 {
		t.Fatalf("sinceBatches = %d, want 1", got)
	}

	// Make the next checkpoint fail at the snapshot write: a directory
	// squats on the temporary file's name.
	tmp := filepath.Join(dir, "snapshot.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointOnce(); err == nil {
		t.Fatal("checkpoint succeeded over a directory at snapshot.tmp")
	}
	if got := srv.dur.ckptErrors.Load(); got != 1 {
		t.Fatalf("ckptErrors = %d, want 1", got)
	}
	// The regression: the counters must NOT have been zeroed by the
	// failed attempt, so the retry trigger is still tripped.
	if got := srv.dur.sinceBatches.Load(); got != 1 {
		t.Fatalf("sinceBatches = %d after failed checkpoint, want 1 (retry must fire promptly)", got)
	}

	// Once the obstacle is gone the retry succeeds and absorbs the batch.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointOnce(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if got := srv.dur.sinceBatches.Load(); got != 0 {
		t.Fatalf("sinceBatches = %d after the retry, want 0", got)
	}
}
