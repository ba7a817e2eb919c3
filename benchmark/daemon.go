// daemon.go — cmd/serve as a real child process: start, wait until it
// serves the expected state, SIGTERM, SIGKILL, peak RSS.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bootConfig is what every boot of one run shares.  The daemon gets
// GOMAXPROCS=2 and no engine flag, so defaults are what is measured.
type bootConfig struct {
	bin       string
	program   string // path
	facts     string // path
	semantics string
	dataDir   string
	logPath   string
	extra     []string
}

type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	exited  chan struct{} // closed once Wait returned
	waitErr error
	log     *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(cfg bootConfig) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a port: %w", err)
	}
	logf, err := os.OpenFile(cfg.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{
		"-program", cfg.program, "-facts", cfg.facts, "-semantics", cfg.semantics,
		"-addr", addr, "-data-dir", cfg.dataDir, "-fsync", fsyncPolicy,
	}
	cmd := exec.Command(cfg.bin, append(args, cfg.extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The daemon must not outlive the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	cmd.Stderr = logf
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", cfg.bin, err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// fsyncPolicy is the WAL policy of every daemon boot: an acknowledged
// update is an fsynced update.
const fsyncPolicy = "always"

// signalAndWait delivers sig and waits for the child to end, falling
// back to SIGKILL after ten seconds.
func (d *daemon) signalAndWait(sig syscall.Signal) {
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// terminate is the graceful stop: cmd/serve writes a final checkpoint,
// so the next boot replays nothing.
func (d *daemon) terminate() { d.signalAndWait(syscall.SIGTERM) }

// kill is kill -9: the next boot recovers from snapshot plus WAL.
func (d *daemon) kill() { d.signalAndWait(syscall.SIGKILL) }

// peakRSSMB reads the child's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

// vmHWM reads the peak resident set of /proc/<pid>, in MB.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// statsBody is the part of GET /v1/stats the harness reads.
type statsBody struct {
	Generation uint64         `json:"generation"`
	Relations  map[string]int `json:"relations"`
}

// waitServing polls /v1/stats until the daemon answers 200 with the
// wanted relation counts (and generation, when wantGen is non-nil) and
// returns the time since exec.  The poll never sleeps longer than a
// millisecond, so the reading is the boot time and not the poll period.
func (d *daemon) waitServing(want map[string]int, wantGen *uint64) (time.Duration, *statsBody, error) {
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := d.started.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, nil, fmt.Errorf("daemon exited during boot: %v", d.waitErr)
		default:
		}
		resp, err := hc.Get(d.base + "/v1/stats")
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		var st statsBody
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		took := time.Since(d.started)
		if resp.StatusCode != http.StatusOK || err != nil {
			return 0, nil, fmt.Errorf("GET /v1/stats: status %d, decode error %v", resp.StatusCode, err)
		}
		if wantGen != nil && st.Generation != *wantGen {
			return 0, nil, fmt.Errorf("daemon serves generation %d, want %d", st.Generation, *wantGen)
		}
		for pred, n := range want {
			if st.Relations[pred] != n {
				return 0, nil, fmt.Errorf("daemon serves %d %s tuples, the oracle has %d", st.Relations[pred], pred, n)
			}
		}
		return took, &st, nil
	}
	return 0, nil, fmt.Errorf("daemon not serving after 60s")
}

// metricsBody is the part of GET /v1/metrics the harness reads.
type metricsBody struct {
	Queue struct {
		Rejected  int64   `json:"rejected"`
		MeanBatch float64 `json:"mean_batch"`
	} `json:"queue"`
	RewriteCache struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"rewrite_cache"`
	Engine struct {
		FilterRate float64 `json:"frontier_filter_hit_rate"`
	} `json:"engine"`
	Durable struct {
		Checkpoints       int64   `json:"checkpoints"`
		LastCheckpointMs  float64 `json:"last_checkpoint_dur_ms"`
		RecoveredSnapshot bool    `json:"recovered_snapshot"`
		ReplayedRecords   int     `json:"recovery_replayed_records"`
	} `json:"durable"`
}

func (d *daemon) scrapeMetrics() (*metricsBody, error) {
	resp, err := http.Get(d.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	var m metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return &m, nil
}

// fsType names the filesystem holding path: tmpfs or disk decides what
// an fsync costs, so the output records it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("disk-0x%x", uint32(st.Type))
}
