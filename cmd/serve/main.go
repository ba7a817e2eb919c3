// Command serve runs the incremental-maintenance daemon: it loads a
// DATALOG¬ program and a fact file, evaluates the chosen semantics
// once, and then serves queries from immutable snapshots while
// accepting fact inserts/deletes that are maintained incrementally
// (DRed over strata, or over the Γ stages of the well-founded model)
// instead of recomputed; only a general inflationary program is
// recomputed on every update.  Concurrent updates
// are group-committed: a 256-deep queue coalesces them into shared
// maintainer passes, and a full queue sheds load with 429.  A query
// whose request says "magic": true is answered demand-driven.
//
// With -data-dir the daemon is durable: committed batches are appended
// to a write-ahead log before they are acknowledged, checkpoints
// snapshot the maintained state in the background, a final checkpoint
// runs on graceful shutdown, and a restart recovers by restoring the
// snapshot — one fixpoint over its EDB, checked against the derived
// relations it holds — and replaying the WAL suffix (see
// internal/durable).
//
// With -follow the daemon is a replication follower: it bootstraps
// from the leader's checkpoint, tails the leader's WAL, applies every
// committed batch through its own maintainer, and serves read-only
// traffic (updates answer 503 not_leader with the leader's address).
// POST /v1/replica/promote flips it writable (see internal/replica).
//
// Usage:
//
//	serve -program tc.dl -facts graph.dl [-semantics inflationary] [-addr :8090]
//	      [-data-dir DIR] [-checkpoint-every 256] [-fsync always|off]
//	      [-follow http://leader:8090]
//
// API (JSON; see internal/server for the wire types):
//
//	GET  /v1/stats
//	GET  /v1/relation?pred=s
//	POST /v1/query    {"pred":"s","args":["v1",null]}
//	POST /v1/update   {"insert":[{"pred":"E","args":["a","b"]}],"delete":[]}
//	GET  /v1/metrics
//	GET  /v1/replica/snapshot?id=F          (leader side)
//	GET  /v1/replica/wal?from=SEQ,OFF&id=F  (leader side)
//	POST /v1/replica/promote                (follower side)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/server"
)

// options collects every serve flag.
type options struct {
	program   string
	facts     string
	semantics string
	addr      string

	dataDir         string
	checkpointEvery int
	fsync           string

	follow string
}

// newFlags defines the flag set over opts.  Split from main so tests
// can exercise the definitions and golden-check the -help output.
func newFlags(name string, opts *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&opts.program, "program", "", "path to the DATALOG¬ program (required)")
	fs.StringVar(&opts.facts, "facts", "", "path to the fact file (required unless -follow)")
	fs.StringVar(&opts.semantics, "semantics", "inflationary", "inflationary|lfp|stratified|wellfounded")
	fs.StringVar(&opts.addr, "addr", ":8090", "listen address")
	fs.StringVar(&opts.dataDir, "data-dir", "", "directory for the checkpoint snapshot and write-ahead log (empty = in-memory only)")
	fs.IntVar(&opts.checkpointEvery, "checkpoint-every", 256, "checkpoint after N committed batches")
	fs.StringVar(&opts.fsync, "fsync", "always", "WAL sync policy: always|off")
	fs.StringVar(&opts.follow, "follow", "", "replicate from this leader URL (read-only follower; requires -data-dir)")
	return fs
}

// serverConfig translates the flags into the server's options API.
func (o *options) serverConfig() (server.Config, error) {
	policy, err := durable.ParseFsyncPolicy(o.fsync)
	if err != nil {
		return server.Config{}, err
	}
	if o.checkpointEvery <= 0 {
		return server.Config{}, fmt.Errorf("-checkpoint-every: want a positive batch count, got %d", o.checkpointEvery)
	}
	return server.Config{
		DataDir:           o.dataDir,
		Fsync:             policy,
		CheckpointBatches: o.checkpointEvery,
		ReadOnly:          o.follow != "",
		LeaderAddr:        o.follow,
	}, nil
}

// newHTTPServer builds the hardened listener: header, read, write, and
// idle timeouts so a stalled or slow-drip client cannot pin a
// connection (the server caps request bodies at 1 MiB itself).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// run is the daemon body.  Errors return (never os.Exit) so the
// deferred server Close always flushes and closes the store — the old
// fatal()-after-NewWith paths leaked it.
func run(args []string) error {
	var opts options
	fs := newFlags("serve", &opts)
	fs.Parse(args)
	if opts.program == "" || (opts.facts == "" && opts.follow == "") {
		fmt.Fprintln(os.Stderr, "usage: serve -program FILE -facts FILE [-semantics NAME] [-addr :8090]")
		fmt.Fprintln(os.Stderr, "       serve -program FILE -follow http://leader:8090 -data-dir DIR [-addr :8091]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	if opts.follow != "" && opts.dataDir == "" {
		return fmt.Errorf("-follow requires -data-dir (the follower persists its own checkpoint and WAL)")
	}

	prog, err := parser.ProgramFile(opts.program)
	if err != nil {
		return err
	}
	db := relation.NewDatabase()
	if opts.facts != "" {
		if db, err = parser.FactsFile(opts.facts); err != nil {
			return err
		}
	}
	sem, err := core.ParseSemantics(opts.semantics)
	if err != nil {
		return err
	}
	cfg, err := opts.serverConfig()
	if err != nil {
		return err
	}

	var repCfg replica.Config
	freshBootstrap := false
	if opts.follow != "" {
		repCfg = replica.Config{
			Leader:    opts.follow,
			DataDir:   opts.dataDir,
			Program:   server.ProgramIdentity(prog),
			Semantics: sem.String(),
			Logf:      log.Printf,
		}
		if freshBootstrap, err = replica.Bootstrap(repCfg); err != nil {
			return err
		}
	}

	start := time.Now()
	srv, err := server.NewWith(prog, db, sem, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	snap := srv.Snapshot()
	total := 0
	for _, r := range snap.Rels {
		total += r.Len()
	}
	log.Printf("serve: %s semantics, %d relations, %d tuples, initial evaluation in %v (magic queries=%t)",
		sem, len(snap.Rels), total, time.Since(start).Round(time.Millisecond), srv.MagicSupported())
	if opts.dataDir != "" {
		log.Printf("serve: durable in %s (fsync=%s, checkpoint-every=%d)",
			opts.dataDir, opts.fsync, opts.checkpointEvery)
	}

	hs := newHTTPServer(opts.addr, srv.Handler())
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Follower mode: tail the leader in the background.  A terminal
	// tail error (compacted / diverged / apply failure) shuts the
	// daemon down — the next boot's Bootstrap wipes and re-bootstraps.
	termCh := make(chan error, 1)
	stopReplica := func() {}
	if opts.follow != "" {
		fol, err := replica.New(repCfg, func(ins, del []incr.Fact) error {
			_, _, uerr := srv.Update(ins, del)
			return uerr
		})
		if err != nil {
			return err
		}
		if freshBootstrap {
			fol.MarkBootstrapped()
		}
		repCtx, repCancel := context.WithCancel(context.Background())
		loopDone := make(chan struct{})
		go func() {
			rerr := fol.Run(repCtx)
			close(loopDone)
			if rerr != nil {
				termCh <- rerr
				sctx, c := context.WithTimeout(context.Background(), 5*time.Second)
				defer c()
				hs.Shutdown(sctx)
			}
		}()
		var stopOnce sync.Once
		stopReplica = func() {
			stopOnce.Do(func() {
				repCancel()
				<-loopDone
			})
		}
		srv.SetReplicaHooks(fol.Metrics, stopReplica)
		log.Printf("serve: following %s (read-only; POST /v1/replica/promote to take over)", opts.follow)
	}

	go func() {
		<-ctx.Done()
		shutdownCtx, c := context.WithTimeout(context.Background(), 5*time.Second)
		defer c()
		hs.Shutdown(shutdownCtx)
	}()
	log.Printf("serve: listening on %s", opts.addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	stopReplica()
	select {
	case rerr := <-termCh:
		return rerr
	default:
	}
	// The documented final checkpoint: a clean restart replays nothing.
	if err := srv.CheckpointNow(); err != nil {
		log.Printf("serve: final checkpoint: %v", err)
	}
	log.Printf("serve: shut down")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
