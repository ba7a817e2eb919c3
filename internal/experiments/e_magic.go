package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/semantics"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E16",
		Title:  "demand-driven point queries: magic-set rewriting vs full materialization",
		Source: "engineering (ROADMAP: point queries for many users; magic sets per Beeri–Ramakrishnan, stratified per Balbin et al.)",
		Run:    runE16,
	})
}

// runE16 answers one point query per workload two ways — magic-set
// rewritten (QueryLFP/QueryStratified) and full materialization plus a
// filter — and checks bit-exactness of the answers on every row.  The
// speedup column is the demand-driven payoff; on the headline row
// (left-recursive TC on a path) the full (non-quick) run asserts the
// ≥5x acceptance bar.  The tc-left/tc-right pair isolates the
// sideways-information-passing sensitivity: same closure, same query,
// opposite recursion direction.
func runE16(w io.Writer, quick bool) error {
	t := newTable(w, "workload", "query", "answers", "derived(magic)", "derived(full)", "t(full)", "t(magic)", "speedup", "check")
	c := &checker{}
	for _, wl := range workload.PointQueryWorkloads(quick) {
		prog := parser.MustProgram(wl.Src)
		q := magic.MustParseQuery(wl.Query)
		db := wl.DB()

		sem := core.LFP
		if wl.Stratified {
			sem = core.Stratified
		}

		// Full materialization + filter (the oracle).
		startFull := time.Now()
		full, err := core.QueryFull(prog, db, q, sem)
		if err != nil {
			return err
		}
		durFull := time.Since(startFull)

		// Demand-driven.
		startMagic := time.Now()
		var res *semantics.QueryResult
		if wl.Stratified {
			res, err = semantics.QueryStratified(prog, db, q)
		} else {
			res, err = semantics.QueryLFP(prog, db, q)
		}
		if err != nil {
			return err
		}
		durMagic := time.Since(startMagic)

		exact := res.Tuples.Len() == full.Tuples.Len() &&
			res.Tuples.Format(res.Universe) == full.Tuples.Format(full.Universe)
		speedup := float64(durFull) / float64(durMagic)
		ok := exact
		if wl.Headline && !quick && speedup < 5 {
			ok = false
		}
		t.row(wl.Name, wl.Query, res.Tuples.Len(), res.Stats.Tuples, full.Stats.Tuples,
			ms(durFull), ms(durMagic), fmt.Sprintf("%.1fx", speedup),
			c.verdict(ok, wl.Name))
	}
	t.flush()
	fmt.Fprintln(w, "    note: answers are bit-exact on every row; 'derived' counts the tuples")
	fmt.Fprintln(w, "    each strategy materializes.  tc-left keeps the magic set at the seed and")
	fmt.Fprintln(w, "    derives one row of the closure; tc-right floods the magic set with every")
	fmt.Fprintln(w, "    reachable vertex — write demand-driven recursions left-recursive.")
	return c.err()
}
