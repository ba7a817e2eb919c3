// replica_test.go — in-process leader/follower pairs over httptest:
// bootstrap, tail, bit-exact convergence, incremental restart, and
// promotion, all under the race detector in CI.
package replica_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/server"
)

const tcSrc = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."

// dump renders every relation of a snapshot, sorted, for bit-exact
// comparison.
func dump(snap *incr.Snapshot) string {
	names := make([]string, 0, len(snap.Rels))
	for name := range snap.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		rel := snap.Rels[name]
		rows := make([]string, 0, rel.Len())
		for _, t := range rel.Tuples() {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = snap.Universe.Name(v)
			}
			rows = append(rows, strings.Join(parts, ","))
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(rows, " "))
	}
	return b.String()
}

func newLeader(t *testing.T, dir string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.NewWith(parser.MustProgram(tcSrc), graphs.Path(4).Database(), core.LFP, server.Config{
		DataDir: dir, Fsync: durable.FsyncOff, CheckpointBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts
}

func followerConfig(leaderURL, dir string) replica.Config {
	return replica.Config{
		Leader:    leaderURL,
		DataDir:   dir,
		Program:   server.ProgramIdentity(parser.MustProgram(tcSrc)),
		Semantics: core.LFP.String(),
		PollWait:  time.Second,
	}
}

func newFollower(t *testing.T, leaderURL, dir string) (*server.Server, *replica.Follower, bool) {
	t.Helper()
	cfg := followerConfig(leaderURL, dir)
	fresh, err := replica.Bootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.NewWith(parser.MustProgram(tcSrc), relation.NewDatabase(), core.LFP, server.Config{
		DataDir: dir, Fsync: durable.FsyncOff, ReadOnly: true, LeaderAddr: leaderURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := replica.New(cfg, func(ins, del []incr.Fact) error {
		_, _, err := fsrv.Update(ins, del)
		return err
	})
	if err != nil {
		fsrv.Close()
		t.Fatal(err)
	}
	if fresh {
		f.MarkBootstrapped()
	}
	return fsrv, f, fresh
}

// waitApplied blocks until the follower has applied n records (or the
// timeout trips).
func waitApplied(t *testing.T, f *replica.Follower, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m := f.Metrics()
		if m.AppliedRecords >= n && m.LagRecords == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to %d records: %+v", n, f.Metrics())
}

func TestLeaderFollowerConverges(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir())
	defer leader.Close()
	defer ts.Close()

	fdir := t.TempDir()
	fsrv, f, fresh := newFollower(t, ts.URL, fdir)
	defer fsrv.Close()
	if !fresh {
		t.Fatal("first boot did not bootstrap")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	ins := func(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }
	var applied int64
	for i := 0; i < 6; i++ {
		if _, _, err := leader.Update(ins("v0", fmt.Sprintf("w%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	if _, _, err := leader.Update(nil, ins("v0", "w3")); err != nil {
		t.Fatal(err)
	}
	applied++
	waitApplied(t, f, applied)

	if got, want := dump(fsrv.Snapshot()), dump(leader.Snapshot()); got != want {
		t.Fatalf("follower state:\n%s\nleader state:\n%s", got, want)
	}

	// Promotion: the loop stops cleanly, then writes open.
	fsrv.SetReplicaHooks(f.Metrics, func() {
		cancel()
		<-done
	})
	fsrv.Promote()
	if _, _, _, err := fsrv.EnqueueUpdate(ins("p", "q"), nil); err != nil {
		t.Fatalf("promoted follower rejected an update: %v", err)
	}
}

func TestFollowerRestartsIncrementally(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir())
	defer leader.Close()
	defer ts.Close()

	fdir := t.TempDir()
	fsrv, f, _ := newFollower(t, ts.URL, fdir)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	ins := func(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }
	for i := 0; i < 3; i++ {
		if _, _, err := leader.Update(ins("v0", fmt.Sprintf("x%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, f, 3)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	fsrv.Close()

	// More leader traffic while the follower is down.
	for i := 3; i < 6; i++ {
		if _, _, err := leader.Update(ins("v0", fmt.Sprintf("x%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: no re-bootstrap, incremental catch-up from the cursor.
	fsrv2, f2, fresh := newFollower(t, ts.URL, fdir)
	defer fsrv2.Close()
	if fresh {
		t.Fatal("restart re-bootstrapped instead of resuming from the cursor")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- f2.Run(ctx2) }()
	waitApplied(t, f2, 3) // 3 new records past the persisted cursor
	if got, want := dump(fsrv2.Snapshot()), dump(leader.Snapshot()); got != want {
		t.Fatalf("follower after restart:\n%s\nleader:\n%s", got, want)
	}
}

func TestFollowerSemanticsMismatchDiverges(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir())
	defer leader.Close()
	defer ts.Close()

	cfg := followerConfig(ts.URL, t.TempDir())
	cfg.Semantics = core.WellFounded.String()
	if _, err := replica.Bootstrap(cfg); err == nil {
		t.Fatal("bootstrap accepted a leader running different semantics")
	}
}
