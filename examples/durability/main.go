// Durability walkthrough: the serve daemon's crash story, in-process.
//
// Four stops:
//  1. build a durable server (Config.DataDir): every committed batch
//     is appended to a write-ahead log before it is acknowledged,
//  2. apply updates and shut down cleanly — then reopen the same data
//     dir and watch recovery restore the checkpoint — one fixpoint
//     over its EDB, checked against its derived relations — and
//     replay the WAL suffix into a ready maintainer,
//  3. bit-exactness: the recovered state and generation match what
//     was served before the restart,
//  4. the /v1/metrics durable block: WAL volume, checkpoint cadence,
//     and what recovery did.
//
// The standalone daemon does the same with
// `serve -data-dir DIR -checkpoint-every 256 -fsync always`; the
// adversarial version of this walkthrough is `make crashtest`, which
// uses kill -9 instead of a clean shutdown (see README, "Durability").
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "durability-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- 1. A durable server: reachability under stratified negation.
	prog := parser.MustProgram(`
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
`)
	cfg := server.Config{
		DataDir:           dir,
		Fsync:             durable.FsyncAlways, // acknowledged == on disk
		CheckpointBatches: 4,                   // checkpoint every 4 committed batches
	}
	srv, err := server.NewWith(prog, graphs.Path(6).Database(), core.Stratified, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("boot 1: fresh dir %s — initial checkpoint written\n", dir)

	// --- 2. Updates are logged before they are acknowledged.
	for _, edge := range [][2]string{{"v5", "v0"}, {"x", "v0"}, {"v2", "x"}} {
		if _, _, err := srv.Update(
			[]incr.Fact{{Pred: "E", Args: []string{edge[0], edge[1]}}}, nil); err != nil {
			log.Fatal(err)
		}
	}
	if _, _, err := srv.Update(nil, []incr.Fact{{Pred: "E", Args: []string{"x", "v0"}}}); err != nil {
		log.Fatal(err)
	}
	before := srv.Snapshot()
	fmt.Printf("boot 1: gen %d, |s| = %d after 4 logged batches\n",
		before.Gen, before.Rels["s"].Len())
	srv.Close() // flushes and closes the WAL

	// --- 3. Reopen: recovery, not re-evaluation.
	srv2, err := server.NewWith(prog, graphs.Path(6).Database(), core.Stratified, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	after := srv2.Snapshot()
	fmt.Printf("boot 2: gen %d, |s| = %d — recovered, bit-exact: %v\n",
		after.Gen, after.Rels["s"].Len(),
		after.Gen == before.Gen && after.Rels["s"].Len() == before.Rels["s"].Len())

	// Updates keep flowing after recovery.
	if _, _, err := srv2.Update([]incr.Fact{{Pred: "E", Args: []string{"y", "v3"}}}, nil); err != nil {
		log.Fatal(err)
	}

	// --- 4. The durable metrics block.
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var met server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		log.Fatal(err)
	}
	d := met.Durable
	fmt.Printf("durable: fsync=%s wal_records=%d checkpoints=%d recovered_snapshot=%v replayed=%d in %.2fms\n",
		d.FsyncPolicy, d.WALRecords, d.Checkpoints,
		d.RecoveredSnapshot, d.RecoveryReplayedRecords, d.RecoveryDurMs)
}
