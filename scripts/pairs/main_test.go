package main

import "testing"

// oneToTen is the sample 1, 2, …, 10 in shuffled order: summary must
// sort a copy, not trust the order of the runs.
var oneToTen = []float64{7, 2, 10, 4, 1, 9, 3, 6, 8, 5}

// TestQuartilesExclusive pins the quartile method to the one the
// benchmark's spread rule uses (benchmark/calibrate.go, and
// Python's statistics.quantiles(n=4)): positions q·(n+1), not the
// inclusive q·(n−1), so the q3 − q1 of 1..10 is 5.5, not 4.5.
func TestQuartilesExclusive(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want quartiles
	}{
		{oneToTen, quartiles{med: 5.5, q1: 2.75, q3: 8.25}},
		{[]float64{1, 2, 3, 4, 5}, quartiles{med: 3, q1: 1.5, q3: 4.5}},
		{[]float64{3}, quartiles{med: 3, q1: 3, q3: 3}},
	} {
		if got := summary(c.in); got != c.want {
			t.Errorf("summary(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestReadDeclared reads the repository's BENCHMARK.json: the four
// workloads, the gated end-to-end metrics with their bounds, and which
// metrics are better higher, under both their per-layer and their
// end-to-end names.
func TestReadDeclared(t *testing.T) {
	d, err := readDeclared("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.workloads) != 4 || d.workloads[3] != "eval-batch" {
		t.Errorf("workloads = %v", d.workloads)
	}
	if len(d.gated) != 2 || d.bound["setup_s"] != 0.25 || d.bound["peak_rss_mb"] != 0.15 || d.higher["setup_s"] {
		t.Errorf("gated = %v, bounds %v", d.gated, d.bound)
	}
	if !d.higher["client.throughput_ops_s"] || !d.higher["throughput_ops_s"] {
		t.Errorf("throughput is better higher, got %v", d.higher)
	}
	if _, err := readDeclared(t.TempDir()); err == nil {
		t.Error("a directory without BENCHMARK.json read without error")
	}
}

// TestVerdictUsesExclusiveSpread is a case the two quartile methods
// decide differently: the change wins every pair and its median is 5
// better, which clears the inclusive q3 − q1 of the parent (4.5) but
// not the exclusive one (5.5).  The benchmark's spread rule refuses
// such a claim, so the script must not call it improved.
func TestVerdictUsesExclusiveSpread(t *testing.T) {
	c := compared{parent: oneToTen, change: make([]float64, len(oneToTen))}
	for i, v := range oneToTen {
		c.change[i] = v - 5
	}
	p, _, wins, better := c.stats()
	if wins != len(oneToTen) || better != 5 {
		t.Fatalf("wins %d, better by %v; want %d and 5", wins, better, len(oneToTen))
	}
	if got := c.verdict(0.25); got == "improved" {
		t.Errorf("verdict %q for a gain of 5 against the parent's q3 − q1 of %v", got, p.q3-p.q1)
	}

	// One more unit of gain clears the exclusive spread too.
	for i := range c.change {
		c.change[i]--
	}
	if got := c.verdict(0.25); got != "improved" {
		t.Errorf("verdict %q for a gain of 6 in every pair, want improved", got)
	}
}
