// pairs runs the alternating-pair protocol every speed claim in this
// repository is checked by (benchmark/README.md, "End-to-end metrics"):
// two checkouts — the parent and the change — run the same
// `bash benchmark/run.sh --workload W --seed S --trace 0` N times each,
// one pair at a time, the side that goes first alternating from pair to
// pair so that the host's drift lands on both.  It prints, per metric of
// the gated JSON line and of the `benchmark: ungated` line, each side's
// median [q1, q3] and in how many pairs the change was better; a claim
// wants at least nine tenths of the pairs (ties count for neither) and
// medians further apart than the parent's q3 − q1.
//
// Usage (see `make pairs`):
//
//	go run ./scripts/pairs -base .bench_build/pairs/base -change . -workload serve-wf -n 10 -seed 1
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is what one benchmark run reported.
type run struct {
	metrics map[string]metric
	correct bool
	failed  int
}

// runOnce runs the benchmark in dir and parses its two result lines.
func runOnce(dir, workload string, seed int64) (*run, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", dir, err, stderr.String())
	}
	r := &run{metrics: map[string]metric{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var gated struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &gated); err != nil {
		return nil, fmt.Errorf("%s: last line of standard output is not the result object: %w", dir, err)
	}
	r.correct, r.failed = gated.Correct, gated.Failed
	for name, m := range gated.Metrics {
		r.metrics[name] = m
	}
	sc = bufio.NewScanner(&stderr)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "benchmark: ungated ")
		if !ok {
			continue
		}
		var ungated map[string]metric
		if err := json.Unmarshal([]byte(rest), &ungated); err != nil {
			return nil, fmt.Errorf("%s: ungated line: %w", dir, err)
		}
		for name, m := range ungated {
			r.metrics[name] = m
		}
	}
	return r, nil
}

// higherIsBetter reads the metric directions BENCHMARK.json declares;
// the ungated end-to-end names are listed there under "client.".
func higherIsBetter(changeDir string) map[string]bool {
	out := map[string]bool{}
	data, err := os.ReadFile(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return out
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if json.Unmarshal(data, &decl) != nil {
		return out
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if m.Better == "higher" {
			out[m.Name] = true
			out[strings.TrimPrefix(m.Name, "client.")] = true
		}
	}
	return out
}

// quantile interpolates linearly between the order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summary(vs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
}

func main() {
	var (
		base     = flag.String("base", "", "checkout of the parent commit")
		change   = flag.String("change", ".", "checkout of the change")
		workload = flag.String("workload", "", "serve-read | serve-write | serve-wf | eval-batch")
		n        = flag.Int("n", 10, "pairs to run")
		seed     = flag.Int64("seed", 1, "benchmark seed, the same on both sides")
	)
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}

	sides := [2]string{*base, *change} // 0 = parent, 1 = change
	values := [2]map[string][]float64{{}, {}}
	units := map[string]string{}
	bad := 0
	for pair := 0; pair < *n; pair++ {
		order := [2]int{0, 1}
		if pair%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			r, err := runOnce(sides[side], *workload, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pairs:", err)
				os.Exit(1)
			}
			if !r.correct || r.failed > 0 {
				bad++
				fmt.Fprintf(os.Stderr, "pairs: pair %d, %s: correct=%v failed=%d\n", pair+1, sides[side], r.correct, r.failed)
			}
			for name, m := range r.metrics {
				values[side][name] = append(values[side][name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Fprintf(os.Stderr, "pairs: %d/%d done\n", pair+1, *n)
	}

	higher := higherIsBetter(*change)
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s, seed %d, %d alternating pairs: median [q1, q3]; runs not correct or with failed operations: %d\n", *workload, *seed, *n, bad)
	fmt.Printf("%-18s %-5s %-30s %-30s %-8s %-6s %s\n", "metric", "unit", "parent", "change", "change", "wins", "beyond parent IQR")
	for _, name := range names {
		p, c := values[0][name], values[1][name]
		if len(p) != *n || len(c) != *n {
			continue
		}
		pm, p1, p3 := summary(p)
		cm, c1, c3 := summary(c)
		wins := 0
		for i := range p {
			if (higher[name] && c[i] > p[i]) || (!higher[name] && c[i] < p[i]) {
				wins++
			}
		}
		gain := pm - cm
		if higher[name] {
			gain = cm - pm
		}
		rel := "n/a"
		if pm != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/pm)
		}
		fmt.Printf("%-18s %-5s %-30s %-30s %-8s %-6s %v\n", name, units[name],
			fmt.Sprintf("%.4g [%.4g, %.4g]", pm, p1, p3), fmt.Sprintf("%.4g [%.4g, %.4g]", cm, c1, c3),
			rel, fmt.Sprintf("%d/%d", wins, *n), gain > p3-p1)
	}
	if bad > 0 {
		os.Exit(1)
	}
}
