// Package experiments regenerates the paper's evaluation: one
// experiment per theorem, lemma, worked example and proposition, each
// printing a table of "paper claim vs measured outcome" rows (the
// paper, a theory paper, has no numeric tables — its claims are the
// artifacts under reproduction).
//
// Each experiment is deterministic (seeded workloads) and checks its
// claims programmatically: a row that contradicts the paper fails the
// experiment, so cmd/bench doubles as an end-to-end verification run.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	// Source cites the part of the paper being reproduced.
	Source string
	// Run writes the experiment's table to w.  In quick mode the
	// parameter sweep is shortened for use under `go test -bench`.
	Run func(w io.Writer, quick bool) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in ID order.
func All() []Experiment {
	out := append([]Experiment{}, registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < … < E10 < E11 (numeric-aware).
		return idOrder(out[i].ID) < idOrder(out[j].ID)
	})
	return out
}

func idOrder(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs every experiment, writing tables to w.
func RunAll(w io.Writer, quick bool) error {
	for _, e := range All() {
		if err := RunOne(w, e, quick); err != nil {
			return err
		}
	}
	return nil
}

// RunOne runs a single experiment with its header.
func RunOne(w io.Writer, e Experiment, quick bool) error {
	fmt.Fprintf(w, "=== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "    source: %s\n", e.Source)
	start := time.Now()
	if err := e.Run(w, quick); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "    (%.2fs)\n\n", time.Since(start).Seconds())
	return nil
}

// table is a small aligned-column writer.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, headers ...any) *table {
	t := &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	t.row(headers...)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// check returns "ok" when got matches the claim, and records failure
// otherwise.
type checker struct{ failures []string }

func (c *checker) verdict(ok bool, context string) string {
	if ok {
		return "ok"
	}
	c.failures = append(c.failures, context)
	return "MISMATCH"
}

func (c *checker) err() error {
	if len(c.failures) == 0 {
		return nil
	}
	return fmt.Errorf("claims violated: %v", c.failures)
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }
