package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestHelpGolden pins the -help output: every engine and queue option
// must stay documented, with its default visible.
func TestHelpGolden(t *testing.T) {
	var opts options
	fs := newFlags("serve", &opts)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()

	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-help output drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// TestServerConfig checks that every flag reaches the options API.
func TestServerConfig(t *testing.T) {
	var opts options
	fs := newFlags("serve", &opts)
	err := fs.Parse([]string{
		"-workers", "3",
		"-magic", "-queue-depth", "7", "-commit-window", "2ms", "-max-batch", "9",
		"-max-body", "2048", "-data-dir", "/tmp/x", "-checkpoint-every", "64mb",
		"-fsync", "interval", "-fsync-interval", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := opts.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != (engine.Options{Workers: 3}) {
		t.Errorf("Engine = %+v, want Workers 3", cfg.Engine)
	}
	if !cfg.MagicDefault || cfg.QueueDepth != 7 || cfg.CommitWindow != 2*time.Millisecond || cfg.MaxBatch != 9 {
		t.Errorf("queue config = %+v", cfg)
	}
	if cfg.MaxBodyBytes != 2048 || cfg.DataDir != "/tmp/x" ||
		cfg.CheckpointBatches != 0 || cfg.CheckpointBytes != 64<<20 ||
		cfg.Fsync != durable.FsyncInterval || cfg.FsyncInterval != 250*time.Millisecond {
		t.Errorf("durable config = %+v", cfg)
	}

	// And the zero-flag path yields GOMAXPROCS workers and the default
	// durability settings: always-fsync, 256-batch checkpoints.
	var dft options
	newFlags("serve", &dft).Parse(nil)
	c, err := dft.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != (engine.Options{}) {
		t.Errorf("default engine options = %+v", c.Engine)
	}
	if c.Fsync != durable.FsyncAlways || c.CheckpointBatches != 256 || c.CheckpointBytes != 0 {
		t.Errorf("default durable config = %+v", c)
	}
	if c.ReadOnly || c.LeaderAddr != "" || c.RetainBytes != 256<<20 || c.RetainTTL != time.Minute {
		t.Errorf("default replication config = %+v", c)
	}

	// Follower flags: -follow flips the server read-only and carries the
	// leader address; -retain/-retain-ttl bound the leader's WAL pinning.
	var fol options
	ffs := newFlags("serve", &fol)
	if err := ffs.Parse([]string{
		"-follow", "http://leader:8090", "-data-dir", "/tmp/f",
		"-retain", "4mb", "-retain-ttl", "30s",
	}); err != nil {
		t.Fatal(err)
	}
	fc, err := fol.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !fc.ReadOnly || fc.LeaderAddr != "http://leader:8090" ||
		fc.RetainBytes != 4<<20 || fc.RetainTTL != 30*time.Second {
		t.Errorf("follower config = %+v", fc)
	}
}

func TestParseCheckpointEvery(t *testing.T) {
	cases := []struct {
		in      string
		batches int
		bytes   int64
		bad     bool
	}{
		{in: "256", batches: 256},
		{in: "1", batches: 1},
		{in: "4kb", bytes: 4 << 10},
		{in: "64MB", bytes: 64 << 20},
		{in: "2gb", bytes: 2 << 30},
		{in: "", batches: 0, bytes: 0},
		{in: "0", bad: true},
		{in: "-3", bad: true},
		{in: "10tb", bad: true},
		{in: "lots", bad: true},
	}
	for _, c := range cases {
		batches, bytes, err := parseCheckpointEvery(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("parseCheckpointEvery(%q): no error", c.in)
			}
			continue
		}
		if err != nil || batches != c.batches || bytes != c.bytes {
			t.Errorf("parseCheckpointEvery(%q) = (%d, %d, %v), want (%d, %d)",
				c.in, batches, bytes, err, c.batches, c.bytes)
		}
	}
}

// TestHTTPServerTimeouts pins the hardened listener: no timeout may be
// left at zero, where one stalled client holds a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", nil)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("timeouts = header %v, read %v, write %v, idle %v; all must be positive",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
}
