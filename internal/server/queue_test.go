// queue_test.go — white-box tests of the group-commit update queue:
// bit-exactness of coalesced commits against the sequential oracle,
// admission control, shutdown, and the concurrent
// updaters × readers × metrics-scrapes race test.  Run with -race.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

const qTCSrc = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."

// relStrings renders a relation as a set of comma-joined constant
// names, so states from different universes compare by value.
func relStrings(rel *relation.Relation, u *relation.Universe) map[string]bool {
	out := make(map[string]bool, rel.Len())
	for _, t := range rel.Tuples() {
		out[strings.Join(names(u, t), ",")] = true
	}
	return out
}

// jobsForWorker builds a deterministic per-worker update sequence over
// tuples only this worker touches: splice fresh constants into the
// base path, then delete a third of them again.
func jobsForWorker(w, rounds int) [][2][]incr.Fact { // [i] = {ins, del}
	var jobs [][2][]incr.Fact
	for i := 0; i < rounds; i++ {
		c := fmt.Sprintf("c_%d_%d", w, i)
		ins := []incr.Fact{
			{Pred: "E", Args: []string{fmt.Sprintf("v%d", w%8), c}},
			{Pred: "E", Args: []string{c, fmt.Sprintf("v%d", (w+1)%8)}},
		}
		jobs = append(jobs, [2][]incr.Fact{ins, nil})
		if i%3 == 0 {
			del := []incr.Fact{{Pred: "E", Args: []string{c, fmt.Sprintf("v%d", (w+1)%8)}}}
			jobs = append(jobs, [2][]incr.Fact{nil, del})
		}
	}
	return jobs
}

// holdGroup forms a group deterministically.  It holds the maintainer
// mutex, runs lead (which must enqueue one update), and waits until the
// committer has sealed that update's group and blocked on the mutex
// inside commit.  Then it runs each of group (each must enqueue one
// update) and returns once all of them wait in the queue, srv.mu still
// held.  When the caller unlocks it, the committer's next gather takes
// exactly those len(group) updates as one group.
func holdGroup(t *testing.T, srv *Server, lead func(), group []func()) {
	t.Helper()
	srv.mu.Lock()
	waitFor := func(what string, done func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				srv.mu.Unlock()
				t.Fatal(what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	batches := srv.met.batches.Load()
	lead()
	waitFor("the committer never took the lead update", func() bool { return srv.met.batches.Load() > batches })
	for _, g := range group {
		g()
	}
	waitFor(fmt.Sprintf("the queue never held %d updates", len(group)), func() bool { return len(srv.queue) == len(group) })
}

// leadUpdate returns a holdGroup lead: it enqueues one insert no
// worker of jobsForWorker touches, counted in wg.
func leadUpdate(t *testing.T, srv *Server, wg *sync.WaitGroup) func() {
	return func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := srv.EnqueueUpdate(leadFact, nil); err != nil {
				t.Errorf("lead update: %v", err)
			}
		}()
	}
}

var leadFact = []incr.Fact{{Pred: "E", Args: []string{"lead", "v0"}}}

// TestGroupCommitBitExact drives 16 concurrent updaters through the
// queue and compares the final state bit-exactly against a maintainer
// that applied the same jobs one at a time.  The workers' first jobs
// are held behind a stalled committer, so they must commit as one
// group of 16.  Workers touch disjoint tuples, so the final state is
// interleaving-independent and the oracle is exact.
func TestGroupCommitBitExact(t *testing.T) {
	prog := parser.MustProgram(qTCSrc)
	db := graphs.Path(8).Database()
	srv, err := NewWith(prog, db.Clone(), core.Inflationary, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers, rounds = 16, 6
	var wg sync.WaitGroup
	firstCoalesced := make([]int, workers)
	start := func(w int) func() {
		return func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, job := range jobsForWorker(w, rounds) {
					_, _, co, err := srv.EnqueueUpdate(job[0], job[1])
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if i == 0 {
						firstCoalesced[w] = co
					}
				}
			}()
		}
	}
	var group []func()
	for w := 0; w < workers; w++ {
		group = append(group, start(w))
	}
	holdGroup(t, srv, leadUpdate(t, srv, &wg), group)
	srv.mu.Unlock()
	wg.Wait()

	// Sequential oracle: same jobs, one maintainer pass each.
	oracle, err := incr.New(prog, db.Clone(), core.Inflationary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Update(leadFact, nil); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for _, job := range jobsForWorker(w, rounds) {
			if _, err := oracle.Update(job[0], job[1]); err != nil {
				t.Fatal(err)
			}
		}
	}

	got, want := srv.Snapshot(), oracle.Snapshot()
	for pred, wantRel := range want.Rels {
		gotRel := got.Rels[pred]
		if gotRel == nil {
			t.Fatalf("relation %s missing from grouped result", pred)
		}
		g, o := relStrings(gotRel, got.Universe), relStrings(wantRel, want.Universe)
		if len(g) != len(o) {
			t.Fatalf("%s: grouped has %d tuples, sequential oracle %d", pred, len(g), len(o))
		}
		for tup := range o {
			if !g[tup] {
				t.Fatalf("%s: tuple %s in oracle but not in grouped result", pred, tup)
			}
		}
	}

	// The whole point: the held-back jobs were committed as one group.
	for w, co := range firstCoalesced {
		if co != workers {
			t.Errorf("worker %d's first job was coalesced with %d, want the group of %d", w, co, workers)
		}
	}
}

// TestQueueAdmissionControl stalls the committer (by holding the
// maintainer mutex), fills the 256-deep queue, and checks that the next
// update is rejected with ErrQueueFull → HTTP 429 + Retry-After +
// structured envelope.
func TestQueueAdmissionControl(t *testing.T) {
	srv, err := New(parser.MustProgram(qTCSrc), graphs.Path(4).Database(), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() *http.Response {
		body, _ := json.Marshal(UpdateRequest{Insert: []incr.Fact{{Pred: "E", Args: []string{"x", "y"}}}})
		resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Stall the committer behind one update, then fill the queue.
	var pending sync.WaitGroup
	enq := func(i int) func() {
		return func() {
			pending.Add(1)
			go func() {
				defer pending.Done()
				srv.EnqueueUpdate([]incr.Fact{{Pred: "E", Args: []string{fmt.Sprintf("x%d", i), "y"}}}, nil)
			}()
		}
	}
	fill := make([]func(), 256)
	for i := range fill {
		fill[i] = enq(i + 1)
	}
	holdGroup(t, srv, enq(0), fill)
	if cap(srv.queue) != len(fill) {
		srv.mu.Unlock()
		t.Fatalf("queue capacity %d, want %d", cap(srv.queue), len(fill))
	}

	resp := post()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		srv.mu.Unlock()
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var envelope ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Errorf("error code = %q, want %q", envelope.Error.Code, CodeOverloaded)
	}

	srv.mu.Unlock()
	pending.Wait() // the stalled jobs complete once the mutex frees
}

// TestUpdateAfterClose: a closed server refuses updates with 503 but
// keeps serving reads from the last snapshot.
func TestUpdateAfterClose(t *testing.T) {
	srv, err := New(parser.MustProgram(qTCSrc), graphs.Path(4).Database(), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	srv.Close() // idempotent

	body, _ := json.Marshal(UpdateRequest{Insert: []incr.Fact{{Pred: "E", Args: []string{"x", "y"}}}})
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var envelope ErrorResponse
	json.NewDecoder(resp.Body).Decode(&envelope)
	if envelope.Error.Code != CodeUnavailable {
		t.Errorf("error code = %q, want %q", envelope.Error.Code, CodeUnavailable)
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Errorf("reads after Close: status %d, want 200", st.StatusCode)
	}
}

// TestErrorEnvelope checks the envelope shape and code on each
// documented failure class.
func TestErrorEnvelope(t *testing.T) {
	srv, err := New(parser.MustProgram(qTCSrc), graphs.Path(4).Database(), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"unknown relation", func() *http.Response {
			r, _ := http.Get(ts.URL + "/v1/relation?pred=nope")
			return r
		}, 404, CodeNotFound},
		{"malformed json", func() *http.Response {
			r, _ := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{"))
			return r
		}, 400, CodeBadRequest},
		{"wrong arity", func() *http.Response {
			body, _ := json.Marshal(QueryRequest{Pred: "s", Args: []*string{nil}})
			r, _ := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			return r
		}, 400, CodeBadRequest},
		{"idb update", func() *http.Response {
			body, _ := json.Marshal(UpdateRequest{Insert: []incr.Fact{{Pred: "s", Args: []string{"a", "b"}}}})
			r, _ := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
			return r
		}, 422, CodeUnprocessable},
		{"insert+delete conflict", func() *http.Response {
			f := incr.Fact{Pred: "E", Args: []string{"a", "b"}}
			body, _ := json.Marshal(UpdateRequest{Insert: []incr.Fact{f}, Delete: []incr.Fact{f}})
			r, _ := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
			return r
		}, 422, CodeUnprocessable},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var envelope ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Errorf("%s: envelope does not decode: %v", tc.name, err)
		}
		resp.Body.Close()
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, envelope.Error.Code, tc.code)
		}
		if envelope.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestConcurrentUpdatersReadersMetrics is the production-traffic race
// test: queued updaters, snapshot readers, and metrics scrapes all at
// once.  Run under -race; readers also check snapshot consistency.
// The updaters' first jobs are held behind a stalled committer and
// must commit as one group of 8.
func TestConcurrentUpdatersReadersMetrics(t *testing.T) {
	srv, err := New(parser.MustProgram(qTCSrc), graphs.Path(8).Database(), core.Inflationary)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// 8 updaters through the group-commit queue.
	const updaters = 8
	firstCoalesced := make([]int, updaters)
	start := func(w int) func() {
		return func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, job := range jobsForWorker(w, 8) {
					_, _, co, err := srv.EnqueueUpdate(job[0], job[1])
					if err != nil {
						t.Errorf("updater %d: %v", w, err)
						return
					}
					if i == 0 {
						firstCoalesced[w] = co
					}
				}
			}()
		}
	}
	var group []func()
	for w := 0; w < updaters; w++ {
		group = append(group, start(w))
	}
	holdGroup(t, srv, leadUpdate(t, srv, &wg), group)
	srv.mu.Unlock()
	// 4 readers: snapshot loads plus HTTP queries.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				s := snap.Relation("s")
				if got := len(s.Tuples()); got != s.Len() {
					t.Errorf("snapshot inconsistent: Tuples=%d Len=%d", got, s.Len())
					return
				}
				v := fmt.Sprintf("v%d", i%8)
				body, _ := json.Marshal(QueryRequest{Pred: "s", Args: []*string{&v, nil}})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(rdr)
	}
	// 2 metrics scrapers.
	for sc := 0; sc < 2; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					continue
				}
				var m MetricsResponse
				if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
					t.Errorf("metrics does not decode: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}

	// Let the updaters finish, then stop the open-ended loops.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-done
	for w, co := range firstCoalesced {
		if co != updaters {
			t.Errorf("updater %d's first job was coalesced with %d, want the group of %d", w, co, updaters)
		}
	}
}

// TestMetricsAccuracy sends a known request mix and checks the
// counters exactly and the latency estimates against their bounds.
func TestMetricsAccuracy(t *testing.T) {
	srv, err := New(parser.MustProgram(qTCSrc), graphs.Path(8).Database(), core.LFP)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	postQ := func(pred string) {
		body, _ := json.Marshal(QueryRequest{Pred: pred, Args: []*string{nil, nil}})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	for i := 0; i < 5; i++ {
		get("/v1/stats")
	}
	get("/v1/relation?pred=E")
	get("/v1/relation?pred=nope") // 404 → one relation error
	for i := 0; i < 4; i++ {
		postQ("s")
	}
	for i := 0; i < 2; i++ {
		srvPost(t, ts.URL, UpdateRequest{Insert: []incr.Fact{{Pred: "E", Args: []string{fmt.Sprintf("u%d", i), "v0"}}}})
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"stats.requests", m.Endpoints["stats"].Requests, 5},
		{"relation.requests", m.Endpoints["relation"].Requests, 2},
		{"relation.errors", m.Endpoints["relation"].Errors, 1},
		{"query.requests", m.Endpoints["query"].Requests, 4},
		{"query.errors", m.Endpoints["query"].Errors, 0},
		{"update.requests", m.Endpoints["update"].Requests, 2},
		{"metrics.requests", m.Endpoints["metrics"].Requests, 0}, // the in-flight scrape is not yet counted
		{"queue.enqueued", m.Queue.Enqueued, 2},
		{"queue.rejected", m.Queue.Rejected, 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if m.Generation != 2 {
		t.Errorf("generation = %d, want 2", m.Generation)
	}
	if m.Queue.Batches < 1 || m.Queue.Batches > 2 {
		t.Errorf("batches = %d, want 1..2", m.Queue.Batches)
	}
	q := m.Endpoints["query"].Latency
	if q.P50Us <= 0 || q.P99Us < q.P50Us || q.P90Us < q.P50Us {
		t.Errorf("query latency estimates inconsistent: %+v", q)
	}
	if m.SnapshotAgeSec < 0 || m.UptimeSec <= 0 {
		t.Errorf("age/uptime out of range: %+v", m)
	}
}

// benchServer builds a TC server over a path graph for the update
// throughput benchmarks.
func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	srv, err := NewWith(parser.MustProgram(qTCSrc), graphs.Path(64).Database(), core.Inflationary, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// runUpdaters spreads b.N single-fact updates over 16 concurrent
// workers.  Each worker toggles a private edge (insert, delete,
// insert, …), so the database size stays constant and every op pays
// one real maintenance delta.
func runUpdaters(b *testing.B, apply func(w int, ins, del []incr.Fact) error) {
	const workers = 16
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			edge := []incr.Fact{{Pred: "E", Args: []string{fmt.Sprintf("b%d", w), fmt.Sprintf("v%d", w)}}}
			for i := 0; i < n; i++ {
				var ins, del []incr.Fact
				if i%2 == 0 {
					ins = edge
				} else {
					del = edge
				}
				if err := apply(w, ins, del); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkServeUpdate16Serialized is the baseline: 16 concurrent
// updaters contending on the maintainer mutex, one pass each.
func BenchmarkServeUpdate16Serialized(b *testing.B) {
	srv := benchServer(b, Config{})
	runUpdaters(b, func(_ int, ins, del []incr.Fact) error {
		_, _, err := srv.Update(ins, del)
		return err
	})
}

// BenchmarkServeUpdate16GroupCommit is the same load through the
// group-commit queue: concurrent updates coalesce into shared passes.
func BenchmarkServeUpdate16GroupCommit(b *testing.B) {
	srv := benchServer(b, Config{})
	runUpdaters(b, func(_ int, ins, del []incr.Fact) error {
		_, _, _, err := srv.EnqueueUpdate(ins, del)
		return err
	})
	b.ReportMetric(float64(srv.met.maxBatch.Load()), "max-batch")
	if batches := srv.met.batches.Load(); batches > 0 {
		b.ReportMetric(float64(srv.met.coalesced.Load())/float64(batches), "mean-batch")
	}
}

func srvPost(t *testing.T, base string, req UpdateRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
}
