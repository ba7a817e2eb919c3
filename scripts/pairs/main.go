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
// With -workload all it runs every workload BENCHMARK.json declares, one
// after the other, and ends with the no-regression table: one row per
// workload and gated end-to-end metric with the bound read from
// BENCHMARK.json and a verdict —
//
//	improved      the change wins nine tenths of the pairs and the medians
//	              lie further apart than the parent's q3 − q1
//	worse         the change's median is worse than the parent's by more
//	              than the bound
//	unresolved    neither, and one side's q3 − q1 is wider than the bound:
//	              the runs cannot tell
//	within bound  otherwise
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

// declared is what the script reads of BENCHMARK.json: the workloads,
// the gated end-to-end metrics with their bounds, and which metrics are
// better higher (the ungated end-to-end names are listed there under
// "client.").
type declared struct {
	workloads []string
	gated     []string
	bound     map[string]float64
	higher    map[string]bool
}

func readDeclared(changeDir string) (*declared, error) {
	data, err := os.ReadFile(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	d := &declared{bound: map[string]float64{}, higher: map[string]bool{}}
	for _, w := range decl.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	for _, m := range decl.EndToEnd {
		d.gated = append(d.gated, m.Name)
		d.bound[m.Name] = m.Bound
		d.higher[m.Name] = m.Better == "higher"
	}
	for _, m := range decl.PerLayer {
		if m.Better == "higher" {
			d.higher[m.Name] = true
			d.higher[strings.TrimPrefix(m.Name, "client.")] = true
		}
	}
	return d, nil
}

// quartiles is one side's median [q1, q3] of a metric.
type quartiles struct{ med, q1, q3 float64 }

// summary cuts the runs at the exclusive quartile positions i·(n+1)/4,
// interpolating between neighbours and clamping to the outer pair — the
// method of the benchmark's own spread rule (benchmark/calibrate.go,
// Python's statistics.quantiles(n=4)), so a verdict here is the one
// that rule reaches.
func summary(vs []float64) quartiles {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return quartiles{s[0], s[0], s[0]}
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartiles{cut(2), cut(1), cut(3)}
}

func (q quartiles) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q.med, q.q1, q.q3) }

// compared is one metric's runs on both sides, pair by pair.
type compared struct {
	parent, change []float64
	higher         bool
}

// stats returns each side's quartiles, the pairs the change won, and by
// how much its median is the better one (negative: the worse one).
func (c compared) stats() (p, ch quartiles, wins int, better float64) {
	p, ch = summary(c.parent), summary(c.change)
	for i := range c.parent {
		if (c.higher && c.change[i] > c.parent[i]) || (!c.higher && c.change[i] < c.parent[i]) {
			wins++
		}
	}
	better = p.med - ch.med
	if c.higher {
		better = -better
	}
	return p, ch, wins, better
}

// verdict is the last column of the no-regression table.
func (c compared) verdict(bound float64) string {
	p, ch, wins, better := c.stats()
	switch {
	case 10*wins >= 9*len(c.parent) && better > p.q3-p.q1:
		return "improved"
	case -better > bound*p.med:
		return "worse"
	case p.q3-p.q1 > bound*p.med || ch.q3-ch.q1 > bound*ch.med:
		return "unresolved"
	}
	return "within bound"
}

// runPairs runs n alternating pairs of one workload and prints every
// metric either run line reported; it returns the metrics by name and
// the number of runs that were not correct or had failed operations.
func runPairs(sides [2]string, workload string, n int, seed int64, decl *declared) (map[string]compared, int) {
	values := [2]map[string][]float64{{}, {}}
	units := map[string]string{}
	bad := 0
	for pair := 0; pair < n; pair++ {
		order := [2]int{0, 1}
		if pair%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			r, err := runOnce(sides[side], workload, seed)
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
		fmt.Fprintf(os.Stderr, "pairs: %s %d/%d done\n", workload, pair+1, n)
	}

	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s, seed %d, %d alternating pairs: median [q1, q3]; runs not correct or with failed operations: %d\n", workload, seed, n, bad)
	fmt.Printf("%-20s %-5s %-30s %-30s %-8s %-6s %s\n", "metric", "unit", "parent", "change", "change", "wins", "beyond parent IQR")
	out := map[string]compared{}
	for _, name := range names {
		c := compared{values[0][name], values[1][name], decl.higher[name]}
		if len(c.parent) != n || len(c.change) != n {
			continue
		}
		out[name] = c
		p, ch, wins, better := c.stats()
		rel := "n/a"
		if p.med != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(ch.med-p.med)/p.med)
		}
		fmt.Printf("%-20s %-5s %-30s %-30s %-8s %-6s %v\n", name, units[name],
			p, ch, rel, fmt.Sprintf("%d/%d", wins, n), better > p.q3-p.q1)
	}
	return out, bad
}

func main() {
	var (
		base     = flag.String("base", "", "checkout of the parent commit")
		change   = flag.String("change", ".", "checkout of the change")
		workload = flag.String("workload", "", "serve-read | serve-write | serve-wf | eval-batch | all")
		n        = flag.Int("n", 10, "pairs to run")
		seed     = flag.Int64("seed", 1, "benchmark seed, the same on both sides")
	)
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	decl, err := readDeclared(*change)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = decl.workloads
	}

	results := make([]map[string]compared, len(workloads))
	bad := 0
	for i, w := range workloads {
		var b int
		results[i], b = runPairs([2]string{*base, *change}, w, *n, *seed, decl)
		bad += b
		fmt.Println()
	}
	fmt.Printf("%-12s %-12s %-30s %-30s %-6s %-6s %s\n", "workload", "metric", "parent", "change", "wins", "bound", "verdict")
	for i, w := range workloads {
		for _, name := range decl.gated {
			c, ok := results[i][name]
			if !ok {
				continue
			}
			p, ch, wins, _ := c.stats()
			fmt.Printf("%-12s %-12s %-30s %-30s %-6s %-6s %s\n", w, name, p, ch,
				fmt.Sprintf("%d/%d", wins, *n), fmt.Sprintf("%.0f%%", 100*decl.bound[name]), c.verdict(decl.bound[name]))
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}
