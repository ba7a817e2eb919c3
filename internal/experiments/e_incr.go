package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

func init() {
	register(Experiment{
		ID:     "E14",
		Title:  "incremental maintenance: DRed over strata and Γ stages vs recompute under EDB updates",
		Source: "Section 4 stage structure (+ [GMS93]-style maintenance)",
		Run:    runE14,
	})
}

// e14Workload is one maintained program + update stream.
type e14Workload struct {
	name    string
	src     string
	sem     core.Semantics
	db      func() *relation.Database
	updates int
	// assertSpeedup is the minimum speedup claimed in full mode.
	assertSpeedup float64
}

func runE14(w io.Writer, quick bool) error {
	scale := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	workloads := []e14Workload{
		{
			// E8-scale: transitive closure, DRed strata path.
			name: fmt.Sprintf("TC path n=%d", scale(64, 16)),
			src:  tcSrc, sem: core.Inflationary,
			db:      func() *relation.Database { return graphs.Path(scale(64, 16)).Database() },
			updates: scale(20, 6), assertSpeedup: 5,
		},
		{
			name: "TC random G(48,0.06)",
			src:  tcSrc, sem: core.LFP,
			db: func() *relation.Database {
				return graphs.Random(newRNG(14), scale(48, 12), 0.06).Database()
			},
			updates: scale(20, 6), assertSpeedup: 5,
		},
		{
			// E10-scale: the distance query (the BenchmarkE10DistanceQuery
			// family, one size up), stratified negation.
			name: fmt.Sprintf("distance G(%d,0.25)", scale(14, 5)),
			src:  distanceSrc, sem: core.Stratified,
			db: func() *relation.Database {
				return graphs.Random(newRNG(14), scale(14, 5), 0.25).Database()
			},
			updates: scale(12, 4), assertSpeedup: 5,
		},
		{
			// The same game under the well-founded semantics: every stage of
			// the alternating fixpoint maintained by DRed.
			name: fmt.Sprintf("win-move G(%d) Γ chain", scale(240, 24)),
			src:  winMoveSrc, sem: core.WellFounded,
			db: func() *relation.Database {
				n := scale(240, 24)
				return graphs.Random(newRNG(9), n, 2/float64(n)).Database()
			},
			updates: scale(20, 6), assertSpeedup: 4,
		},
	}

	t := newTable(w, "workload", "semantics", "updates", "tuples", "t(incr)/upd", "t(recompute)/upd", "speedup", "exact", "check")
	c := &checker{}
	for _, wl := range workloads {
		prog := parser.MustProgram(wl.src)
		db := wl.db()
		m, err := incr.New(prog, db, wl.sem)
		if err != nil {
			return err
		}
		mirror := db.Clone()
		rng := rand.New(rand.NewSource(4242))
		nVerts := mirror.Universe().Size()
		var tIncr, tRec time.Duration
		exact := true
		for step := 0; step < wl.updates; step++ {
			u := graphs.VertexName(rng.Intn(nVerts))
			v := graphs.VertexName(rng.Intn(nVerts))
			f := incr.Fact{Pred: "E", Args: []string{u, v}}
			var ins, del []incr.Fact
			if step%3 == 2 && mirror.Relation("E").Len() > 1 {
				del = append(del, f)
			} else {
				ins = append(ins, f)
			}

			start := time.Now()
			if _, err := m.Update(ins, del); err != nil {
				return err
			}
			tIncr += time.Since(start)

			// From-scratch recompute on an identically updated mirror.
			for _, d := range del {
				tu := internTuple(mirror, d.Args)
				mirror.Relation("E").Remove(tu)
			}
			for _, i := range ins {
				tu := internTuple(mirror, i.Args)
				mirror.MustEnsure("E", 2).Add(tu)
			}
			start = time.Now()
			res, err := core.Eval(prog, mirror, wl.sem)
			if err != nil {
				return err
			}
			tRec += time.Since(start)
			if m.State().Format(m.Universe()) != res.State.Format(res.Universe) {
				exact = false
			}
			if res.WF != nil && m.WF().Possible.Format(m.Universe()) != res.WF.Possible.Format(res.Universe) {
				exact = false
			}
		}
		speedup := float64(tRec) / float64(tIncr)
		ok := exact
		if !quick {
			// Timing claims only gate the full run; CI smoke uses quick
			// mode, where the column is informational (runner noise).
			ok = ok && speedup >= wl.assertSpeedup
		}
		t.row(wl.name, wl.sem, wl.updates, m.State().Total(),
			ms(time.Duration(int64(tIncr)/int64(wl.updates))),
			ms(time.Duration(int64(tRec)/int64(wl.updates))),
			fmt.Sprintf("%.1fx", speedup), exact,
			c.verdict(ok, wl.name))
	}
	t.flush()
	fmt.Fprintln(w, "    note: single-fact updates maintained by DRed delete/rederive (strata)")
	fmt.Fprintln(w, "    or by the same DRed passes over the stages of the alternating fixpoint")
	fmt.Fprintln(w, "    (well-founded); every row is checked bit-exact against a full")
	fmt.Fprintln(w, "    recompute, the well-founded one in its true and possible parts.")
	fmt.Fprintln(w, "    A general inflationary program is recomputed, so it has no row.")
	return c.err()
}

// internTuple interns constant names into the database universe.
func internTuple(db *relation.Database, args []string) relation.Tuple {
	t := make(relation.Tuple, len(args))
	for i, a := range args {
		t[i] = db.Universe().Intern(a)
	}
	return t
}
