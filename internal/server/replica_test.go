// replica_test.go — white-box tests of the replication surface and
// the two shutdown/checkpoint races it exposed: Close must fence an
// in-flight background checkpoint, and CheckpointNow must leave a
// clean shutdown with nothing to replay.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
)

func newReplicaServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dir
	if cfg.Fsync == 0 {
		cfg.Fsync = durable.FsyncOff
	}
	srv, err := NewWith(parser.MustProgram(qTCSrc), graphs.Path(4).Database(), core.LFP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func edge(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }

// Satellite regression: Close must wait for an in-flight background
// checkpoint instead of closing the store out from under its
// WriteCheckpoint.
func TestCloseWaitsForInFlightCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := newReplicaServer(t, dir, Config{CheckpointBatches: 1})

	// Hold the checkpoint between its state capture and the snapshot
	// write — exactly the window the old Close could close the store in.
	gate := make(chan struct{})
	entered := make(chan struct{})
	testCkptGate = func() {
		close(entered)
		<-gate
	}
	defer func() { testCkptGate = nil }()

	if _, _, err := srv.Update(edge("a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("background checkpoint never started")
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a checkpoint write was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the checkpoint finished")
	}
	if got := srv.dur.ckptErrors.Load(); got != 0 {
		t.Fatalf("fenced checkpoint failed anyway: %d errors", got)
	}

	// The checkpoint that Close waited out is durable: the next boot
	// restores it and replays nothing.
	srv2 := newReplicaServer(t, dir, Config{})
	defer srv2.Close()
	if !srv2.dur.recoveredSnapshot || srv2.dur.replayedRecords != 0 {
		t.Fatalf("recovery after fenced close: snapshot=%v replayed=%d, want snapshot and 0 records",
			srv2.dur.recoveredSnapshot, srv2.dur.replayedRecords)
	}
}

// Satellite regression: the documented final checkpoint on SIGTERM —
// CheckpointNow before Close leaves zero records to replay.
func TestCheckpointNowCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	srv := newReplicaServer(t, dir, Config{})
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Update(edge("a", fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// Idempotent when clean: nothing new to cover, nothing rewritten.
	ckpts := srv.dur.checkpoints.Load()
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := srv.dur.checkpoints.Load(); got != ckpts {
		t.Fatalf("clean CheckpointNow wrote anyway: %d -> %d", ckpts, got)
	}
	gen := srv.Snapshot().Gen
	srv.Close()

	srv2 := newReplicaServer(t, dir, Config{})
	defer srv2.Close()
	if got := srv2.dur.replayedRecords; got != 0 {
		t.Fatalf("boot after clean shutdown replayed %d records, want 0", got)
	}
	if got := srv2.Snapshot().Gen; got != gen {
		t.Fatalf("recovered generation %d, want %d", got, gen)
	}
}

func TestFollowerRejectsUpdates(t *testing.T) {
	srv := newReplicaServer(t, t.TempDir(), Config{ReadOnly: true, LeaderAddr: "leader.example:8080"})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := bytes.NewBufferString(`{"insert":[{"pred":"E","args":["x","y"]}]}`)
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower update status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(HdrLeaderAddr); got != "leader.example:8080" {
		t.Fatalf("X-Leader-Addr = %q", got)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != CodeNotLeader {
		t.Fatalf("error code %q (%v), want not_leader", e.Error.Code, err)
	}

	// Reads still serve.
	r2, err := http.Get(ts.URL + "/v1/relation?pred=s")
	if err != nil || r2.StatusCode != http.StatusOK {
		t.Fatalf("follower read: %v status %v", err, r2.StatusCode)
	}
	r2.Body.Close()

	// The follower loop's hooks feed the metrics replica block and run
	// on promotion, before writes open.
	promoted := false
	srv.SetReplicaHooks(func() *ReplicaMetrics {
		return &ReplicaMetrics{Leader: "leader.example:8080", AppliedRecords: 7}
	}, func() { promoted = true })
	rm, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met struct {
		Replica *ReplicaMetrics `json:"replica"`
	}
	if err := json.NewDecoder(rm.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	rm.Body.Close()
	if met.Replica == nil || met.Replica.AppliedRecords != 7 || !met.Replica.ReadOnly {
		t.Fatalf("metrics replica block = %+v", met.Replica)
	}

	// Promotion opens writes.
	r3, err := http.Post(ts.URL+"/v1/replica/promote", "application/json", nil)
	if err != nil || r3.StatusCode != http.StatusOK {
		t.Fatalf("promote: %v status %v", err, r3.StatusCode)
	}
	r3.Body.Close()
	if srv.readOnly.Load() {
		t.Fatal("still read-only after promote")
	}
	if !promoted {
		t.Fatal("promotion hook never ran")
	}
	r4, err := http.Post(ts.URL+"/v1/update", "application/json",
		bytes.NewBufferString(`{"insert":[{"pred":"E","args":["x","y"]}]}`))
	if err != nil || r4.StatusCode != http.StatusOK {
		t.Fatalf("update after promote: %v status %v", err, r4.StatusCode)
	}
	r4.Body.Close()
}

func TestReplicaEndpoints(t *testing.T) {
	srv := newReplicaServer(t, t.TempDir(), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Bootstrap: the snapshot response carries a cursor and identity.
	resp := get("/v1/replica/snapshot?id=f1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	snapBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := durable.ReadSnapshot(bytes.NewReader(snapBytes)); err != nil {
		t.Fatalf("streamed snapshot unreadable: %v", err)
	}
	if got := resp.Header.Get(HdrReplicaProgram); got != ProgramIdentity(srv.prog) {
		t.Fatalf("program identity %q", got)
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(HdrReplicaSeq), 10, 64)
	off, _ := strconv.ParseInt(resp.Header.Get(HdrReplicaOff), 10, 64)
	cursor := fmt.Sprintf("%d,%d", seq, off)

	// Ship some batches and poll them back.
	want := [][]incr.Fact{edge("a", "b"), edge("b", "c")}
	for _, ins := range want {
		if _, _, err := srv.Update(ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	resp = get("/v1/replica/wal?id=f1&wait=5&from=" + cursor)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal status %d", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := resp.Header.Get(HdrReplicaRecords); n != "2" {
		t.Fatalf("shipped %s records, want 2", n)
	}
	payloads, err := durable.ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		rec, err := durable.DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Ins[0].Args[1] != want[i][0].Args[1] {
			t.Fatalf("record %d = %+v, want ins %+v", i, rec, want[i])
		}
	}
	next := resp.Header.Get(HdrReplicaNextSeq) + "," + resp.Header.Get(HdrReplicaNextOff)

	// Idle poll at the tail: empty 200 heartbeat, cursor unchanged.
	resp = get("/v1/replica/wal?id=f1&wait=0&from=" + next)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HdrReplicaRecords) != "0" {
		t.Fatalf("tail poll: status %d records %s", resp.StatusCode, resp.Header.Get(HdrReplicaRecords))
	}
	resp.Body.Close()

	// A cursor past the durable end is divergence.
	resp = get("/v1/replica/wal?id=f3&wait=0&from=99999,8")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged cursor status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// A cursor before the retained history is compaction.  f1's pin
	// keeps the bootstrap segment past the first checkpoint; draining
	// it moves the pin to the next segment, and the second checkpoint
	// deletes the bootstrap segment with its cursor.
	poll := func(from string) string {
		t.Helper()
		resp := get("/v1/replica/wal?id=f1&wait=0&from=" + from)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll f1 from %s: status %d", from, resp.StatusCode)
		}
		return resp.Header.Get(HdrReplicaNextSeq) + "," + resp.Header.Get(HdrReplicaNextOff)
	}
	for _, e := range [][]incr.Fact{edge("c", "d"), edge("d", "a")} {
		if _, _, err := srv.Update(e, nil); err != nil {
			t.Fatal(err)
		}
		if err := srv.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		next = poll(poll(next))
	}
	resp = get("/v1/replica/wal?id=f2&wait=0&from=" + cursor)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted cursor status %d, want 410", resp.StatusCode)
	}
	resp.Body.Close()
}

// A poll the leader rejects leaves the follower's retention pin where
// it was: a diverged cursor past the log must not move the pin above
// the segments the follower's bootstrap cursor still needs.
func TestRejectedPollKeepsPin(t *testing.T) {
	srv := newReplicaServer(t, t.TempDir(), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/replica/snapshot?id=f1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cursor := resp.Header.Get(HdrReplicaSeq) + "," + resp.Header.Get(HdrReplicaOff)
	resp, err = http.Get(ts.URL + "/v1/replica/wal?id=f1&wait=0&from=99999,8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged cursor status %d, want 409", resp.StatusCode)
	}
	if _, _, err := srv.Update(edge("a", "b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/replica/wal?id=f1&wait=0&from=" + cursor)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HdrReplicaRecords) != "1" {
		t.Fatalf("bootstrap cursor after a rejected poll: status %d records %s, want 200 with 1",
			resp.StatusCode, resp.Header.Get(HdrReplicaRecords))
	}
}
