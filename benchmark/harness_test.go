package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/server"
)

// smokeServer serves spec's program over its initial EDB from an
// in-process, in-memory server.
func smokeServer(t *testing.T, spec *serveSpec, g *generator) *httptest.Server {
	t.Helper()
	prog, err := parser.Program(spec.program)
	if err != nil {
		t.Fatal(err)
	}
	db, err := parser.Facts(g.factsFile())
	if err != nil {
		t.Fatal(err)
	}
	sem, err := core.ParseSemantics(spec.semantics)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(prog, db, sem)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// smoke runs two 200-op windows of serve-write against an in-process
// server and returns everything the verifier needs.
func smoke(t *testing.T) (*serveSpec, *generator, []op, *recorder, *target) {
	t.Helper()
	spec := findServeSpec("serve-write")
	g := newGenerator(spec, 42)
	ops := g.ops(400)
	tgt := newTarget(smokeServer(t, spec, g).URL)
	t.Cleanup(tgt.close)
	rec := &recorder{n: spec.n}
	for w := 0; w < 2; w++ {
		win := tgt.runWindow(ops, w*200, (w+1)*200, rec, nil)
		if got := len(win.read) + len(win.update); got != 200 {
			t.Fatalf("window %d timed %d ops, want 200", w, got)
		}
	}
	if n := rec.failed.Load(); n != 0 {
		t.Fatalf("%d ops failed, first: %v", n, rec.first)
	}
	return spec, g, ops, rec, tgt
}

func TestSmokeServeWrite(t *testing.T) {
	spec, g, ops, rec, tgt := smoke(t)
	state := newEDB(spec.n, g.graph)
	if bad, first := verifyReads(spec, state, ops, rec); bad != 0 {
		t.Fatalf("%d replies differ from the oracle, first: %v", bad, first)
	}
	if err := verifyRelations(spec, state, tgt); err != nil {
		t.Fatal(err)
	}
}

// A wrong oracle must fail the run: start the verifier from an EDB that
// lacks one edge and every layer above it has to notice.
func TestWrongOracleFailsTheRun(t *testing.T) {
	spec, g, ops, rec, tgt := smoke(t)
	// Drop an edge no update touches, so the oracle stays wrong to the end.
	pooled := map[edge]bool{}
	for _, e := range g.pool.edges {
		pooled[e] = true
	}
	drop := -1
	for i, e := range g.graph {
		if !pooled[e] {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("test set-up: no static edge to drop")
	}
	wrong := append(append([]edge{}, g.graph[:drop]...), g.graph[drop+1:]...)
	state := newEDB(spec.n, wrong)
	bad, first := verifyReads(spec, state, ops, rec)
	if bad == 0 || first == nil {
		t.Fatal("a wrong oracle went unnoticed by verifyReads")
	}
	if err := verifyRelations(spec, state, tgt); err == nil {
		t.Fatal("a wrong oracle went unnoticed by verifyRelations")
	}
	res := newResult(400, bad)
	if res.Correct {
		t.Error("result.correct is true with failed operations")
	}
	if err := report(res, io.Discard); err == nil {
		t.Error("report returned nil for a run with failed operations; the process would exit 0")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, spec := range serveSpecs {
		a, b := newGenerator(spec, 7), newGenerator(spec, 7)
		if a.factsFile() != b.factsFile() {
			t.Errorf("%s: the same seed gave different fact files", spec.name)
		}
		seqA := encodeOps(append(a.ops(600), a.singleUpdates(50)...))
		seqB := encodeOps(append(b.ops(600), b.singleUpdates(50)...))
		if !bytes.Equal(seqA, seqB) {
			t.Errorf("%s: the same seed gave different op sequences", spec.name)
		}
		c := newGenerator(spec, 8)
		if bytes.Equal(seqA, encodeOps(append(c.ops(600), c.singleUpdates(50)...))) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", spec.name)
		}
		// Different seeds must still be the same graph up to renaming.
		if len(a.graph) != len(c.graph) {
			t.Errorf("%s: seeds 7 and 8 gave graphs of %d and %d edges", spec.name, len(a.graph), len(c.graph))
		}
	}
}

func TestMixIsExactPerBlock(t *testing.T) {
	for _, spec := range serveSpecs {
		want := 0
		probe := newGenerator(spec, 3)
		for _, m := range spec.mix {
			if o := m.make(probe); o.isUpdate() {
				want += m.count
			}
		}
		ops := newGenerator(spec, 3).ops(300)
		for block := 0; block < 3; block++ {
			updates := 0
			for _, o := range ops[block*100 : (block+1)*100] {
				if o.isUpdate() {
					updates++
				}
			}
			if updates != want {
				t.Errorf("%s block %d has %d updates, want %d", spec.name, block, updates, want)
			}
		}
	}
}

func TestTogglePoolIsStationary(t *testing.T) {
	for _, spec := range serveSpecs {
		g := newGenerator(spec, 5)
		state := newEDB(spec.n, g.graph)
		size := func() int { return len(state.edges()) }
		initial := size()
		if initial != len(g.graph) {
			t.Fatalf("%s: %d distinct edges from %d generated", spec.name, initial, len(g.graph))
		}
		seen := 0
		for _, o := range g.ops(3000) {
			if !o.isUpdate() {
				continue
			}
			seen++
			if len(o.ins) != len(o.del) {
				t.Fatalf("%s: update %d inserts %d and deletes %d facts", spec.name, seen, len(o.ins), len(o.del))
			}
			before := size()
			state.apply(o.ins, o.del)
			// Every insert must be of an absent edge and every delete of
			// a present one, or the size would not move by exactly this.
			if got := size(); got != before || got != initial {
				t.Fatalf("%s: after update %d the relation has %d edges, want %d", spec.name, seen, got, initial)
			}
		}
		if seen == 0 {
			t.Fatalf("%s: no updates in 3000 ops", spec.name)
		}
		for i, o := range g.singleUpdates(2 * len(g.pool.edges)) {
			state.apply(o.ins, o.del)
			if got := size(); got < initial-1 || got > initial+1 {
				t.Fatalf("%s: after single update %d the relation has %d edges, want %d±1", spec.name, i, got, initial)
			}
		}
	}
}

// Every op of a run, the recovery updates included, must change the
// EDB by exactly the facts it names: the pool is walked once through all
// of them, so generating a window the run never sends would leave the
// updates after it inserting present edges and deleting absent ones.
func TestEveryGeneratedUpdateChangesTheEDB(t *testing.T) {
	for _, spec := range serveSpecs {
		for _, traced := range []bool{false, true} {
			r := &serveRun{spec: spec, seed: 5, traced: traced, windowOps: spec.windowOps}
			r.generate()
			if !traced && len(r.recov) != recoveryCycles*recoverySuffix {
				t.Fatalf("%s: %d recovery updates, want %d", spec.name, len(r.recov), recoveryCycles*recoverySuffix)
			}
			for i, o := range append(r.ops, r.recov...) {
				if !o.isUpdate() {
					continue
				}
				if err := r.state.changes(o.ins, o.del); err != nil {
					t.Fatalf("%s traced=%t: op %d %v", spec.name, traced, i, err)
				}
				r.state.apply(o.ins, o.del)
			}
		}
	}
}

func TestWindowMedianIgnoresOnePoisonedWindow(t *testing.T) {
	var windows []window
	for i := 0; i < loadWindows; i++ {
		w := window{ops: 1000, elapsed: time.Second}
		for j := 0; j < 100; j++ {
			w.read = append(w.read, time.Duration(j+1)*10*time.Microsecond) // 10..1000 us
		}
		windows = append(windows, w)
	}
	// A neighbour on the shared box stalls window 3 tenfold.
	windows[3].elapsed = 10 * time.Second
	for j := range windows[3].read {
		windows[3].read[j] *= 10
	}
	if got := medianOf(windows, func(w window) float64 { return w.throughput() }); got != 1000 {
		t.Errorf("median throughput = %v ops/s, want 1000", got)
	}
	p50 := medianOf(windows, func(w window) float64 { return percentileMs(w.read, 0.50) })
	if want := 0.505; p50 < want-1e-9 || p50 > want+1e-9 {
		t.Errorf("median of window p50s = %v ms, want %v", p50, want)
	}
	// The mean would have moved by more than half.
	sum := 0.0
	for _, w := range windows {
		sum += w.throughput()
	}
	if mean := sum / float64(len(windows)); mean > 900 {
		t.Errorf("mean throughput = %v: the poisoned window should show in the mean", mean)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(us int) time.Time { return l.t0.Add(time.Duration(us) * time.Microsecond) }
	root := l.add("op.update", at(0), at(100), 0, 1)
	l.add("incr.update", at(0), at(70), root, 1)
	l.add("durable.append", at(70), at(95), root, 1)
	self := l.selfTimes()
	if got := self["op.update"][0]; got != 5*time.Microsecond {
		t.Errorf("root self time = %v, want 5us", got)
	}
	if got := self["incr.update"][0]; got != 70*time.Microsecond {
		t.Errorf("leaf self time = %v, want 70us", got)
	}
}

// BENCHMARK.json and the harness must name the same metrics and
// workloads, or the driver refuses the run.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the op counts are frozen for %d", file.RunSeconds, defaultSeconds)
	}
	var workloads []string
	for _, w := range file.Workloads {
		workloads = append(workloads, w.Name)
	}
	want := []string{evalBatchName}
	for _, s := range serveSpecs {
		want = append(want, s.name)
	}
	sort.Strings(workloads)
	sort.Strings(want)
	if !equalStrings(workloads, want) {
		t.Errorf("workloads = %v, the harness runs %v", workloads, want)
	}

	if len(file.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, the harness prints %d", len(file.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range file.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d is %s (%s), the harness prints %s (%s)", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(file.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics declared, the harness prints %d", len(file.PerLayer), len(perLayerNames))
	}
	for i, m := range file.PerLayer {
		if m.Name != perLayerNames[i].name || m.Unit != perLayerNames[i].unit {
			t.Errorf("per-layer %d is %s (%s), the harness prints %s (%s)", i, m.Name, m.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
