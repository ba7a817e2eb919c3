package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
)

// newDurableServer builds a server persisting to dir.  The program and
// seed database are fixed, mirroring how cmd/serve reloads the same
// files on every boot.
func newDurableServer(t *testing.T, dir string, sem core.Semantics, cfg server.Config) *server.Server {
	t.Helper()
	cfg.DataDir = dir
	srv, err := server.NewWith(parser.MustProgram(tcSrc), graphs.Path(8).Database(), sem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// dumpState renders every relation of the published snapshot, sorted,
// for bit-exactness comparison across restarts.
func dumpState(srv *server.Server) string {
	snap := srv.Snapshot()
	var names []string
	for name := range snap.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		r := snap.Rels[name]
		var rows []string
		for _, tup := range r.Tuples() {
			var parts []string
			for _, v := range tup {
				parts = append(parts, snap.Universe.Name(v))
			}
			rows = append(rows, strings.Join(parts, ","))
		}
		sort.Strings(rows)
		b.WriteString(name + ": " + strings.Join(rows, " ") + "\n")
	}
	return b.String()
}

func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, core.Stratified, server.Config{Fsync: durable.FsyncOff})
	if _, _, err := srv.Update([]incr.Fact{{Pred: "E", Args: []string{"v7", "v0"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Update(nil, []incr.Fact{{Pred: "E", Args: []string{"v2", "v3"}}}); err != nil {
		t.Fatal(err)
	}
	want := dumpState(srv)
	gen := srv.Snapshot().Gen
	srv.Close()

	// Reboot: the snapshot restores, the two logged batches replay.
	srv2 := newDurableServer(t, dir, core.Stratified, server.Config{Fsync: durable.FsyncOff})
	defer srv2.Close()
	if got := dumpState(srv2); got != want {
		t.Fatalf("state diverged across restart:\n got %s\nwant %s", got, want)
	}
	if got := srv2.Snapshot().Gen; got != gen {
		t.Fatalf("generation = %d after recovery, want %d", got, gen)
	}

	// Updates keep flowing after recovery.
	if _, _, err := srv2.Update([]incr.Fact{{Pred: "E", Args: []string{"v3", "v1"}}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedUpdateIsNotServed: an arity clash on a predicate the
// program does not mention passes admission and is rejected by the
// maintainer, after an earlier fact of the same request named a new
// constant.  The request is answered 422 and never logged, so nothing
// of it may be served either: p(X) :- !q(X) reads the universe, and a
// restart from the data dir must serve exactly what this process does.
func TestRejectedUpdateIsNotServed(t *testing.T) {
	dir := t.TempDir()
	boot := func() *server.Server {
		srv, err := server.NewWith(parser.MustProgram("p(X) :- !q(X)."), parser.MustFacts("q(a)."), core.Stratified,
			server.Config{DataDir: dir, Fsync: durable.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := boot()
	ts := httptest.NewServer(srv.Handler())
	fact := func(pred string, args ...string) incr.Fact { return incr.Fact{Pred: pred, Args: args} }
	if code := postJSON(t, ts.URL+"/v1/update", server.UpdateRequest{
		Insert: []incr.Fact{fact("aux", "b"), fact("aux", "a", "b")},
	}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("arity clash: status %d, want 422", code)
	}
	if code := postJSON(t, ts.URL+"/v1/update", server.UpdateRequest{Insert: []incr.Fact{fact("q", "c")}}, nil); code != http.StatusOK {
		t.Fatalf("accepted update: status %d", code)
	}
	served := dumpState(srv)
	ts.Close()
	srv.Close()

	srv2 := boot()
	defer srv2.Close()
	if got := dumpState(srv2); got != served {
		t.Fatalf("served before the restart:\n%s\nrecovered:\n%s", served, got)
	}
	if want := "p: \nq: a c\n"; served != want {
		t.Fatalf("served %q, want %q", served, want)
	}
}

func TestDurableRecoveryReplaysOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, core.LFP, server.Config{Fsync: durable.FsyncAlways})
	for i := 0; i < 3; i++ {
		if _, _, err := srv.Update([]incr.Fact{{Pred: "E", Args: []string{"x", "v0"}}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.Update(nil, []incr.Fact{{Pred: "E", Args: []string{"x", "v0"}}}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	// Second boot absorbs the six batches into the snapshot...
	srv2 := newDurableServer(t, dir, core.LFP, server.Config{Fsync: durable.FsyncAlways})
	ts := httptest.NewServer(srv2.Handler())
	var met struct {
		Durable *server.DurableMetrics `json:"durable"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &met)
	ts.Close()
	srv2.Close()
	if met.Durable == nil {
		t.Fatal("durable block missing from /v1/metrics")
	}
	if !met.Durable.RecoveredSnapshot || met.Durable.RecoveryReplayedRecords != 6 {
		t.Fatalf("boot 2: recovered=%v replayed=%d, want snapshot + 6 records",
			met.Durable.RecoveredSnapshot, met.Durable.RecoveryReplayedRecords)
	}
	if met.Durable.FsyncPolicy != "always" {
		t.Fatalf("fsync policy = %q", met.Durable.FsyncPolicy)
	}
	if met.Durable.RecoveryDurMs < 0 {
		t.Fatalf("recovery duration = %v", met.Durable.RecoveryDurMs)
	}

	// ...so a third boot replays nothing: snapshot only, empty suffix.
	srv3 := newDurableServer(t, dir, core.LFP, server.Config{Fsync: durable.FsyncAlways})
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	getJSON(t, ts3.URL+"/v1/metrics", &met)
	if !met.Durable.RecoveredSnapshot || met.Durable.RecoveryReplayedRecords != 0 {
		t.Fatalf("boot 3: recovered=%v replayed=%d, want snapshot + 0 records",
			met.Durable.RecoveredSnapshot, met.Durable.RecoveryReplayedRecords)
	}
}

func TestDurableCheckpointTrigger(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, core.LFP, server.Config{
		Fsync:             durable.FsyncOff,
		CheckpointBatches: 2,
	})
	defer srv.Close()
	for i := 0; i < 4; i++ {
		ins := []incr.Fact{{Pred: "E", Args: []string{"y", "v0"}}}
		if i%2 == 1 {
			if _, _, err := srv.Update(nil, ins); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := srv.Update(ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var met struct {
			Durable *server.DurableMetrics `json:"durable"`
		}
		getJSON(t, ts.URL+"/v1/metrics", &met)
		// One checkpoint ran at boot (fresh dir); the batch trigger
		// must have fired at least one more in the background.
		if met.Durable.Checkpoints >= 2 && met.Durable.LastCheckpointAgeSec >= 0 {
			if met.Durable.CheckpointErrors != 0 {
				t.Fatalf("checkpoint errors: %+v", met.Durable)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never fired: %+v", met.Durable)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRejectsForeignHistory(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, core.LFP, server.Config{Fsync: durable.FsyncOff})
	srv.Close()

	otherProg := parser.MustProgram("t(X) :- E(X,Y).")
	if _, err := server.NewWith(otherProg, graphs.Path(8).Database(), core.LFP,
		server.Config{DataDir: dir, Fsync: durable.FsyncOff}); err == nil {
		t.Fatal("accepted a data dir written by a different program")
	}
	if _, err := server.NewWith(parser.MustProgram(tcSrc), graphs.Path(8).Database(), core.Stratified,
		server.Config{DataDir: dir, Fsync: durable.FsyncOff}); err == nil {
		t.Fatal("accepted a data dir written under different semantics")
	}
}

func TestBodyTooLarge(t *testing.T) {
	srv, err := server.NewWith(parser.MustProgram(tcSrc), graphs.Path(8).Database(), core.LFP,
		server.Config{MaxBodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	big := `{"insert":[{"pred":"E","args":["` + strings.Repeat("a", 200) + `","b"]}]}`
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "too_large" {
		t.Fatalf("error code = %q, want too_large", envelope.Error.Code)
	}

	// Under the cap still works, on both POST endpoints.
	small := bytes.NewReader([]byte(`{"pred":"E","args":[null,null]}`))
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", small)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("small query status = %d", qresp.StatusCode)
	}
}
