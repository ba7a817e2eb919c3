package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestHelpGolden pins the -help output: every option must stay
// documented, with its default visible.
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
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 8 {
		t.Errorf("serve defines %d flags, want 8", n)
	}
}

// TestServerConfig checks that every flag reaches the options API (or,
// for the four run reads itself, the options struct).
func TestServerConfig(t *testing.T) {
	var opts options
	fs := newFlags("serve", &opts)
	err := fs.Parse([]string{
		"-program", "p.dl", "-facts", "f.dl", "-semantics", "lfp", "-addr", ":9",
		"-data-dir", "/tmp/x", "-checkpoint-every", "64",
		"-fsync", "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.program != "p.dl" || opts.facts != "f.dl" || opts.semantics != "lfp" || opts.addr != ":9" {
		t.Errorf("run options = %+v", opts)
	}
	cfg, err := opts.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := server.Config{
		DataDir:           "/tmp/x",
		Fsync:             durable.FsyncOff,
		CheckpointBatches: 64,
	}
	if cfg != want {
		t.Errorf("config = %+v, want %+v", cfg, want)
	}

	// And the zero-flag path yields the default durability settings:
	// always-fsync, 256-batch checkpoints.
	var dft options
	newFlags("serve", &dft).Parse(nil)
	c, err := dft.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := (server.Config{Fsync: durable.FsyncAlways, CheckpointBatches: 256}); c != want {
		t.Errorf("default config = %+v, want %+v", c, want)
	}

	// Follower flags: -follow flips the server read-only and carries the
	// leader address.
	var fol options
	ffs := newFlags("serve", &fol)
	if err := ffs.Parse([]string{"-follow", "http://leader:8090", "-data-dir", "/tmp/f"}); err != nil {
		t.Fatal(err)
	}
	fc, err := fol.serverConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !fc.ReadOnly || fc.LeaderAddr != "http://leader:8090" || fc.DataDir != "/tmp/f" {
		t.Errorf("follower config = %+v", fc)
	}
}

// TestParseCheckpointEvery: -checkpoint-every is a committed-batch
// count; zero, a negative count, an empty value and a WAL size are
// rejected.
func TestParseCheckpointEvery(t *testing.T) {
	cases := []struct {
		in      string
		batches int
		bad     bool
	}{
		{in: "256", batches: 256},
		{in: "1", batches: 1},
		{in: "", bad: true},
		{in: "0", bad: true},
		{in: "-3", bad: true},
		{in: "64MB", bad: true},
		{in: "4kb", bad: true},
		{in: "10tb", bad: true},
		{in: "lots", bad: true},
	}
	for _, c := range cases {
		var opts options
		fs := newFlags("serve", &opts)
		fs.Init("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var cfg server.Config
		err := fs.Parse([]string{"-checkpoint-every", c.in})
		if err == nil {
			cfg, err = opts.serverConfig()
		}
		if c.bad {
			if err == nil {
				t.Errorf("-checkpoint-every %q: no error", c.in)
			}
			continue
		}
		if err != nil || cfg.CheckpointBatches != c.batches {
			t.Errorf("-checkpoint-every %q: CheckpointBatches %d, %v; want %d", c.in, cfg.CheckpointBatches, err, c.batches)
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
