// Command benchmark is the repository's one repeatable benchmark: four
// workloads over seeded, fixed-length operation sequences, every answer
// checked against a plain-Go oracle, every rate and latency a median
// over windows.  See README.md for the metrics, the workloads and the
// cost ledger.
//
//	go run -C benchmark . -workload serve-write -seed 1            # end-to-end metrics
//	go run -C benchmark . -workload serve-write -seed 1 -trace 1   # per-layer metrics + span file
//	go run -C benchmark . -calibrate                               # two sets of runs, spread against bounds
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length of the
// measured phase the frozen op counts were calibrated to.  -seconds
// scales the op counts linearly from it, so a given -seconds is the
// same work on every commit.
const defaultSeconds = 14

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	ungated   map[string]metric
	notes     map[string]string // context for the log, not part of the contract
}

func newResult(attempted, failed int) *result {
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{}, ungated: map[string]metric{}, notes: map[string]string{},
	}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }
func (r *result) note(key, value string)           { r.notes[key] = value }

// endToEndMetrics are the gated metrics, the ones a --trace 0 run prints
// on its last line; BENCHMARK.json declares the same list.  Both are
// measured by all four workloads.  Every wall-clock rate and latency the
// issue wanted gated is measured too, but reported ungated (see
// setUngated): on this host two sets of runs of one commit differ by up
// to 27 % in all of them at once, which no bound the issue allows covers.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// gated sets one of the gated metrics, in its declared unit.
func (r *result) gated(name string, v float64) {
	for _, m := range endToEndMetrics {
		if m.name == name {
			r.set(name, m.unit, v)
			return
		}
	}
	panic("benchmark: undeclared end-to-end metric " + name)
}

// setUngated records an end-to-end measurement that is not gated.  A
// --trace 0 run prints these as one JSON object on standard error, which
// is where calibrate reads them; the traced run reports the same
// quantities as client.* per-layer metrics.
func (r *result) setUngated(name, unit string, v float64) {
	r.ungated[name] = metric{Value: v, Unit: unit}
}

// ungatedPrefix starts the standard-error line that carries them.
const ungatedPrefix = "benchmark: ungated "

// findRoot locates the repository root from the working directory:
// the harness is started either there or in benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/serve not found from the working directory; run from the repository root or benchmark/")
}

// buildServe compiles cmd/serve once into the build directory.
func buildServe(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "bin", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/serve: %v\n%s", err, out)
	}
	return bin, nil
}

func main() {
	var (
		workload  = flag.String("workload", "", "serve-read | serve-write | serve-wf | eval-batch")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs and operation sequence")
		seconds   = flag.Float64("seconds", defaultSeconds, "run length; scales the frozen op counts linearly")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		calibrate = flag.Bool("calibrate", false, "run two sets of runs per workload and print each metric's spread against its bound")
		runs      = flag.Int("runs", 5, "with -calibrate: runs per set")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if *calibrate {
		root, err := findRoot()
		if err == nil {
			err = runCalibrate(root, *seconds, *runs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace != 0); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec := findServeSpec(workload)
	if spec == nil && workload != evalBatchName {
		return fmt.Errorf("unknown -workload %q (serve-read, serve-write, serve-wf, eval-batch)", workload)
	}

	buildDir := filepath.Join(root, ".bench_build")
	env := &runEnv{outDir: filepath.Join(root, "benchmark", "out")}
	env.runDir = filepath.Join(buildDir, fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(env.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(env.runDir)
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return err
	}

	scale := seconds / defaultSeconds
	var res *result
	if spec == nil {
		res, err = runEvalBatch(env, seed, scale, traced)
	} else {
		if env.serveBin, err = buildServe(root, buildDir); err != nil {
			return err
		}
		res, err = runServe(env, spec, seed, scale, traced)
	}
	if err != nil {
		return err
	}

	return report(res, os.Stdout)
}

// report prints the run's context to standard error and its result as
// the last line of out.  A run with a failed operation — a non-2xx
// status, a timeout, an oracle mismatch, a recovery that replayed the
// wrong records — is an error, so the process exits non-zero.
func report(res *result, out io.Writer) error {
	keys := make([]string, 0, len(res.notes))
	for k := range res.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "benchmark: %s=%s\n", k, res.notes[k])
	}
	if len(res.ungated) > 0 {
		line, err := json.Marshal(res.ungated)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s%s\n", ungatedPrefix, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}
