// calibrate.go — shows how well the benchmark repeats.  It runs every
// workload in two sets of runs, each run a fresh process of this binary
// with a seed of its own, and prints for every end-to-end metric the
// spread inside each set and the shift between the sets' medians, next
// to the bound BENCHMARK.json gives the metric.  The driver that gates
// later changes does the same with ten runs a set.  The ungated
// measurements are listed too: their rows are why they are not gated.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json calibrate reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, the median and the third
// quartile of v the way Python's statistics.quantiles(v, n=4) does,
// which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runOnce runs one workload in a child process and returns its gated
// metrics and, read off its standard error, its ungated measurements.
func runOnce(self, root, workload string, seed int, seconds float64) (gated, ungated map[string]metric, err error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, ungatedPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &ungated); err != nil {
				return nil, nil, fmt.Errorf("%s seed %d: ungated line: %w", workload, seed, err)
			}
		}
	}
	return res.Metrics, ungated, nil
}

// ungatedOrder is the order calibrate lists the ungated measurements in.
var ungatedOrder = []string{
	"throughput_ops_s", "read_p50_ms", "update_p50_ms", "recovery_s",
	"eval_s", "eval_lfp_s", "eval_inflationary_s", "eval_stratified_s", "eval_wellfounded_s",
}

func runCalibrate(root string, seconds float64, runs int) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	flagged := 0
	fmt.Printf("%-12s %-22s %12s %12s %8s %8s %8s %7s\n",
		"workload", "metric", "median A", "median B", "iqr A %", "iqr B %", "shift %", "bound %")
	for _, w := range bench.Workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				gated, ungated, err := runOnce(self, root, w.Name, 1+set*runs+i, seconds)
				if err != nil {
					return err
				}
				for _, metrics := range []map[string]metric{gated, ungated} {
					for name, m := range metrics {
						sets[set][name] = append(sets[set][name], m.Value)
					}
				}
			}
		}
		row := func(name string) (iqr, shift float64) {
			_, a2, _ := quartiles(sets[0][name])
			_, b2, _ := quartiles(sets[1][name])
			iqrA, iqrB := iqrPct(sets[0][name]), iqrPct(sets[1][name])
			shift = 100 * (b2 - a2) / a2 // positive = B reads higher
			fmt.Printf("%-12s %-22s %12.5g %12.5g %8.2f %8.2f %+8.2f", w.Name, name, a2, b2, iqrA, iqrB, shift)
			return math.Max(iqrA, iqrB), shift
		}
		for _, m := range bench.EndToEnd {
			iqr, shift := row(m.Name)
			note := ""
			// setup_s is gated on the shift only, not on its spread.  A
			// shift counts in either direction: two sets of one commit
			// that disagree do so whichever of them ran first.
			if m.Name != "setup_s" && iqr > 100*m.Bound/3 {
				note += "  <-- spread over a third of the bound"
			}
			if math.Abs(shift) > 100*m.Bound/2 {
				note += "  <-- shift over half the bound"
			}
			if note != "" {
				flagged++
			}
			fmt.Printf(" %7.1f%s\n", 100*m.Bound, note)
		}
		for _, name := range ungatedOrder {
			if len(sets[0][name]) > 0 {
				row(name)
				fmt.Printf(" %7s\n", "ungated")
			}
		}
	}
	if flagged > 0 {
		fmt.Printf("%d gated workload x metric pairs flagged: lengthen the run (more ops per window) before widening a bound\n", flagged)
	} else {
		fmt.Println("every gated pair is steady: spreads under a third of the bound, shifts under half of it")
	}
	return nil
}
